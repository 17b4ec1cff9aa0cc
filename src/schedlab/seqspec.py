"""The sequential side: dictionary semantics, DAG states, and the three
search structures compiled into step programs.

A structure is a rooted DAG of key/value nodes with labelled outgoing
edges.  Every operation is a read-only traverse phase (repeatedly visiting
nodes: one visit reads a node's key, value and outgoing edges) followed by
a write-only update phase that patches the outgoing-edge slots of already
visited nodes.  The traverse function works off G_op, the sub-DAG of nodes
visited so far, never off the live graph, so a suspended operation resumes
against whatever the graph has become.  G_op is a plain dict from each
visited node to the record its visit read; its insertion order is the
visit order.

The three structures are the skiplist, the BST and the sorted list, which
is the one-level skiplist whose one edge is labelled ``next``: it shares
the skiplist's descent, update plan and order audit.

Keys are natural numbers; root/tail sentinels use -inf/+inf.  Values
default to the key itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .model import InvariantError

NEG_INF = float("-inf")
POS_INF = float("inf")

ROOT_ROLE = "root"
TAIL_ROLE = "tail"

STRUCTURES = ("sorted-list", "bst", "skiplist")


def enc_key(key) -> object:
    if key == NEG_INF:
        return "-inf"
    if key == POS_INF:
        return "inf"
    return key


def dec_key(enc) -> object:
    if enc == "-inf":
        return NEG_INF
    if enc == "inf":
        return POS_INF
    return enc


def node_token(nid: int | None) -> str | None:
    """The "n<id>" token that stands for node `nid` in a record's edges and
    a write's patch (None stays None)."""
    return None if nid is None else f"n{nid}"


def token_node(token: str) -> int:
    """The node id a ``node_token`` stands for."""
    return int(token[1:])


@dataclass(frozen=True)
class Operation:
    name: str  # insert | delete | find
    key: int
    val: object = None

    def __post_init__(self):
        """An insert stores its key when given no value; no other
        operation takes a value (ValueError)."""
        if self.name == "insert":
            if self.val is None:
                object.__setattr__(self, "val", self.key)
        elif self.val is not None:
            raise ValueError(f"only an insert takes a value: {self.name}"
                             f"({self.key}) with value {self.val!r}")

    def describe(self) -> str:
        return f"{self.name}({self.key})"


def dictionary_apply(q: dict, op: Operation) -> tuple[dict, bool]:
    """The abstract transition relation: finite map key->value."""
    if op.name == "insert":
        if op.key in q:
            return q, False
        q2 = dict(q)
        q2[op.key] = op.val
        return q2, True
    if op.name == "delete":
        if op.key not in q:
            return q, False
        q2 = dict(q)
        del q2[op.key]
        return q2, True
    if op.name == "find":
        return q, op.key in q
    raise ValueError(f"unknown operation {op.name!r}")


# -- the shared DAG ---------------------------------------------------------


@dataclass
class NodeRec:
    """One node's record.  A record in a store is never mutated: writes
    and unlinks install a new record, so stores, forks and G_op snapshots
    share the records that have not changed."""

    nid: int
    key: float
    val: object
    edges: dict[str, int | None]
    alive: bool = True
    # memo of the record's configuration key (``scheduler``)
    _key: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def snap(self) -> dict:
        """JSON-ready snapshot of the whole record (one element's value)."""
        return {"key": enc_key(self.key), "val": self.val,
                "edges": {lab: node_token(t) for lab, t in self.edges.items()}}


@dataclass
class DagState:
    nodes: dict[int, NodeRec] = field(default_factory=dict)
    root: int = 0
    tail: int | None = None
    # memo cell of [canonical(), the store's configuration key
    # (``scheduler``)], shared with the clones taken since the last
    # mutation; a mutation gives the mutating side a fresh cell
    _canon: list = field(default_factory=lambda: [None, None], init=False,
                         repr=False, compare=False)

    def alloc(self, key, val, edges: dict[str, int | None]) -> int:
        """A new node numbered ``len(nodes)``: no node ever leaves
        ``nodes`` (an unlink installs a record that is not alive)."""
        nid = len(self.nodes)
        self.nodes[nid] = NodeRec(nid, key, val, dict(edges))
        self._canon = [None, None]
        return nid

    def read(self, nid: int) -> NodeRec:
        return self.nodes[nid]

    def write_edges(self, nid: int, patch: dict[str, int | None]) -> None:
        r = self.nodes[nid]
        self.nodes[nid] = NodeRec(nid, r.key, r.val, {**r.edges, **patch}, r.alive)
        self._canon = [None, None]

    def unlink(self, nid: int) -> None:
        r = self.nodes[nid]
        self.nodes[nid] = NodeRec(nid, r.key, r.val, r.edges, False)
        self._canon = [None, None]

    def find_alive(self, key) -> int | None:
        for n in self.nodes.values():
            if n.alive and n.key == key:
                return n.nid
        return None

    def role_of(self, nid: int) -> str:
        if nid == self.root:
            return ROOT_ROLE
        if nid == self.tail:
            return TAIL_ROLE
        return f"key:{self.nodes[nid].key}"

    def snapshot(self) -> dict[int, dict]:
        return {nid: rec.snap() for nid, rec in sorted(self.nodes.items())}

    def clone(self) -> DagState:
        """A store of its own over the same (immutable) records, sharing
        the memo cell; built without the dataclass ``__init__``, whose
        default factory would make a cell only to drop it."""
        st = object.__new__(DagState)
        st.nodes, st.root, st.tail = dict(self.nodes), self.root, self.tail
        st._canon = self._canon
        return st

    def canonical(self) -> tuple:
        """Signature of the reachable part for state memoization: each
        node's key, value and edges, ids canonicalized by BFS from the
        root.  It holds all that a read of a reachable node records."""
        cell = self._canon
        if cell[0] is None:
            cell[0] = self._canonical_bfs()
        return cell[0]

    def _canonical_bfs(self) -> tuple:
        """One pass over the reachable part: a node is numbered when it is
        first pushed and each node's edges are sorted once.  The queue is
        FIFO, so a node's first push comes before any later one's, and the
        push order is the order in which a queue holding duplicates would
        first pop each node; every edge of a popped node points at a
        numbered node or at None."""
        nodes, root = self.nodes, self.root
        order, remap, out = [root], {root: 0}, []
        for i, n in enumerate(order):  # `order` grows as nodes are pushed
            rec = nodes[n]
            edges = sorted(rec.edges.items())
            for _, t in edges:
                if t is not None and t not in remap:
                    remap[t] = len(order)
                    order.append(t)
            out.append((i, enc_key(rec.key), rec.val,
                        tuple([(lab, remap.get(t)) for lab, t in edges])))
        return tuple(out)


# -- the explored sub-DAG of one operation ----------------------------------
#
# Records are immutable, so G_op holding the record itself freezes what
# was read.


def visit(gop: dict[int, NodeRec], rec: NodeRec) -> None:
    """Add the record of a node not visited before: G_op only grows
    (``tau`` names unvisited nodes)."""
    if rec.nid in gop:
        raise InvariantError(f"G_op already holds n{rec.nid}")
    gop[rec.nid] = rec


def write_order(gop: dict[int, NodeRec],
                writes) -> list[tuple[int, dict[str, int | None]]]:
    """A plan's (node, patch) writes sorted by their node's position in
    G_op's visit order: root-ward first (``UpdatePlan``)."""
    if len(writes) < 2:
        return list(writes)
    pos = {nid: i for i, nid in enumerate(gop)}
    return sorted(writes, key=lambda wr: pos[wr[0]])


@dataclass
class UpdatePlan:
    """Write-only update phase: edge patches against already shared nodes.

    `writes` is ordered by the target's first-visit position (root-ward
    first), one entry per written node: ``hoh`` locks and releases each
    entry's node, and ``stm``'s commit bumps its version, once, so a node
    written twice raises.  `new_nodes` were allocated private and become
    shared when the patch linking them lands.
    """

    response: bool
    writes: list[tuple[int, dict[str, int | None]]] = field(default_factory=list)
    new_nodes: list[int] = field(default_factory=list)
    unlink: list[int] = field(default_factory=list)

    def __post_init__(self):
        nodes = [nid for nid, _ in self.writes]
        if len(set(nodes)) != len(nodes):
            raise InvariantError(f"plan writes a node twice: {nodes}")


# -- structure definitions ---------------------------------------------------


def _acyclic_from(state: DagState, n: int, seen: dict[int, int]) -> None:
    """``SearchStructureDef.audit``'s DFS from node `n`: raises on an edge
    back into the path; `seen` marks a node 1 while on the path, 2 after."""
    seen[n] = 1
    for t in state.nodes[n].edges.values():
        if t is None:
            continue
        if seen.get(t) == 1:
            raise InvariantError("cycle through node %d" % t)
        if t not in seen:
            _acyclic_from(state, t, seen)
    seen[n] = 2


class SearchStructureDef:
    """One concrete search structure: layout, traverse, insert and delete
    functions.  Subclasses provide the structure-specific pieces; the
    traverse protocol (visit nodes until the op can decide) is shared.
    ``tau`` and ``plan_update`` read only an operation's name, key and
    val, so a machine passes its ``OperationInstance``."""

    name: str

    def new_state(self) -> DagState:
        raise NotImplementedError

    def tau(self, op: Operation, gop: dict[int, NodeRec],
            state_root: int) -> int | None:
        """Next node to visit, or None when G_op contains enough to decide.

        Pure in G_op: replans the canonical search from the root using only
        visited records, returning the first unvisited node the search
        needs.  The returned node is always the target of a known edge."""
        raise NotImplementedError

    def plan_update(self, op: Operation, gop: dict[int, NodeRec],
                    state: DagState) -> UpdatePlan:
        """The insert/delete function applied to G_op; find plans no writes."""
        raise NotImplementedError

    def audit(self, state: DagState) -> None:
        """Structure invariant: acyclic and order-respecting."""
        _acyclic_from(state, state.root, {})
        self._audit_order(state)

    def _audit_order(self, state: DagState) -> None:
        raise NotImplementedError

    def fingerprint(self) -> tuple:
        return (self.name,)

    def space(self) -> SequentialSpace:
        """This structure's sequential state space and local traces, made
        on first use and kept as long as the structure.  The space does not
        refer back to the structure, so the two are freed together."""
        sp = self.__dict__.get("_space")
        if sp is None:
            sp = self._space = SequentialSpace()
        return sp


class Bst(SearchStructureDef):
    """Unbalanced internal binary search tree below a -inf sentinel.

    Two-child deletes splice the in-order successor into the removed
    node's position and clear the removed node's child edges, so the
    removed node is part of the update's write (and hence lock) set."""

    name = "bst"

    def new_state(self) -> DagState:
        st = DagState()
        st.root = st.alloc(NEG_INF, None, {"right": None})
        st.tail = None
        return st

    @staticmethod
    def _dir(node_key, key) -> str:
        return "right" if key > node_key else "left"

    def _descend(self, gop, state_root, key):
        """Deepest visited node on the search path plus its next target."""
        pos = state_root
        while True:
            if gop[pos].key == key:
                return pos, None
            d = self._dir(gop[pos].key, key)
            t = gop[pos].edges.get(d)
            if t is None or t not in gop:
                return pos, t
            pos = t

    def tau(self, op, gop, state_root):
        if state_root not in gop:
            return state_root
        pos, t = self._descend(gop, state_root, op.key)
        if gop[pos].key == op.key:
            if op.name != "delete":
                return None
            return self._successor_probe(gop, pos)
        return t  # unvisited child to probe, or None: key absent

    def _successor_probe(self, gop, d):
        """Explore the in-order successor chain needed by a 2-child splice."""
        if gop[d].edges.get("left") is None or gop[d].edges.get("right") is None:
            return None
        pos = gop[d].edges["right"]
        while pos in gop:
            nxt = gop[pos].edges.get("left")
            if nxt is None:
                return None  # successor located
            pos = nxt
        return pos

    def plan_update(self, op, gop, state):
        pos, t = self._descend(gop, state.root, op.key)
        found = gop[pos].key == op.key
        if op.name == "find":
            return UpdatePlan(found)
        if op.name == "insert":
            if found:
                return UpdatePlan(False)
            new = state.alloc(op.key, op.val, {"left": None, "right": None})
            d = self._dir(gop[pos].key, op.key)
            return UpdatePlan(True, writes=[(pos, {d: new})], new_nodes=[new])
        if not found:
            return UpdatePlan(False)
        return self._plan_delete(gop, pos)

    def _plan_delete(self, gop, d):
        parent = next(n for n, r in gop.items() if d in r.edges.values())
        pdir = next(lab for lab, t in gop[parent].edges.items() if t == d)
        left, right = gop[d].edges.get("left"), gop[d].edges.get("right")
        if left is None or right is None:
            child = left if left is not None else right
            return UpdatePlan(True, writes=[(parent, {pdir: child})], unlink=[d])
        # two children: splice the in-order successor into d's position
        s, s_parent = right, d
        while gop[s].edges.get("left") is not None:
            s_parent, s = s, gop[s].edges["left"]
        writes = [(parent, {pdir: s})]
        if s_parent is d:
            writes.append((s, {"left": left}))
        else:
            writes.append((s_parent, {"left": gop[s].edges.get("right")}))
            writes.append((s, {"left": left, "right": right}))
        writes.append((d, {"left": None, "right": None}))
        return UpdatePlan(True, writes=write_order(gop, writes), unlink=[d])

    def _audit_order(self, state):
        # preorder, as a stack of (node, open key interval)
        stack = [(state.nodes[state.root].edges.get("right"), NEG_INF, POS_INF)]
        while stack:
            n, lo, hi = stack.pop()
            if n is None:
                continue
            rec = state.nodes[n]
            if not lo < rec.key < hi:
                raise InvariantError(f"bst order violated at n{n}")
            stack.append((rec.edges.get("right"), rec.key, hi))
            stack.append((rec.edges.get("left"), lo, rec.key))


class SkipList(SearchStructureDef):
    """Towers with one next pointer per level (edge ``next<level>``);
    heights drawn from a seeded generator keyed by (seed, key) so identical
    keys always toss the same coins."""

    name = "skiplist"

    def __init__(self, max_level: int = 3, seed: int = 0):
        self.max_level = max_level
        self.seed = seed

    def fingerprint(self):
        return (self.name, self.max_level, self.seed)

    def height(self, key: int) -> int:
        h = 1
        if h < self.max_level:  # a one-level list tosses no coins
            rng = random.Random(f"{self.seed}:{key}")
            while h < self.max_level and rng.random() < 0.5:
                h += 1
        return h

    def lab(self, level: int) -> str:
        return f"next{level}"

    def new_state(self) -> DagState:
        st = DagState()
        root = st.alloc(NEG_INF, None, {self.lab(l): None
                                        for l in range(self.max_level, 0, -1)})
        tail = st.alloc(POS_INF, None, {})
        st.write_edges(root, {self.lab(l): tail for l in range(self.max_level, 0, -1)})
        st.root, st.tail = root, tail
        return st

    def _search(self, op, gop, state_root):
        """Replan the canonical descent over visited nodes.

        Returns (preds, probe, hit): preds maps level -> last node with
        key < op.key whose level-edge was resolved, probe is the first
        unvisited node the search must read next (None when resolved), and
        hit is the first visited node on the way that holds op.key.  A find
        or an insert stops at the hit; a delete descends on to level 1 for
        its predecessors."""
        key = op.key
        preds: dict[int, int] = {}
        pos, hit = state_root, None
        for lvl in range(self.max_level, 0, -1):
            lab = self.lab(lvl)
            while True:
                t = gop[pos].edges.get(lab)
                if t is None:
                    break
                rec = gop.get(t)
                if rec is None:
                    return preds, t, hit
                if rec.key < key:
                    pos = t
                    continue
                if rec.key == key and hit is None:
                    hit = t
                    if op.name != "delete":
                        return preds, None, hit
                break
            preds[lvl] = pos
        return preds, None, hit

    def tau(self, op, gop, state_root):
        if state_root not in gop:
            return state_root
        return self._search(op, gop, state_root)[1]

    def plan_update(self, op, gop, state):
        preds, _, hit = self._search(op, gop, state.root)
        if op.name == "find":
            return UpdatePlan(hit is not None)
        if op.name == "insert":
            if hit is not None:
                return UpdatePlan(False)
            h = self.height(op.key)
            edges = {self.lab(l): gop[preds[l]].edges.get(self.lab(l))
                     for l in range(h, 0, -1)}
            new = state.alloc(op.key, op.val, edges)
            patches: dict[int, dict] = {}
            for l in range(h, 0, -1):
                patches.setdefault(preds[l], {})[self.lab(l)] = new
            return UpdatePlan(True, writes=write_order(gop, patches.items()),
                              new_nodes=[new])
        if hit is None:
            return UpdatePlan(False)
        patches = {}
        hit_edges = gop[hit].edges
        for l in range(self.max_level, 0, -1):
            lab = self.lab(l)
            if lab in hit_edges:
                patches.setdefault(preds[l], {})[lab] = hit_edges[lab]
        return UpdatePlan(True, writes=write_order(gop, patches.items()),
                          unlink=[hit])

    def _audit_order(self, state):
        for lvl in range(self.max_level, 0, -1):
            lab = self.lab(lvl)
            n = state.root
            while n is not None:
                nxt = state.nodes[n].edges.get(lab)
                if nxt is not None and state.nodes[n].key >= state.nodes[nxt].key:
                    raise InvariantError(f"{self.name} unsorted at level {lvl}, "
                                         f"n{n} -> n{nxt}")
                n = nxt


class SortedList(SkipList):
    """The one-level skiplist: a single path of strictly increasing keys
    between two sentinels, along edges labelled ``next``."""

    name = "sorted-list"

    def __init__(self):
        super().__init__(max_level=1)

    def fingerprint(self):
        return (self.name,)

    def lab(self, level: int) -> str:
        return "next"


def make_structure(name: str, max_level: int = 3, seed: int = 0) -> SearchStructureDef:
    if name == "sorted-list":
        return SortedList()
    if name == "bst":
        return Bst()
    if name == "skiplist":
        return SkipList(max_level=max_level, seed=seed)
    raise ValueError(f"unknown structure {name!r}")


def shortest_path_len(state: DagState, target: int) -> int | None:
    dist = {state.root: 0}
    queue = [state.root]
    while queue:
        n = queue.pop(0)
        if n == target:
            return dist[n]
        for t in state.nodes[n].edges.values():
            if t is not None and t not in dist:
                dist[t] = dist[n] + 1
                queue.append(t)
    return None


# -- direct sequential interpreter -------------------------------------------
#
# Independent of the concurrent machinery in `sync`: this is the oracle
# side of the dual route (the Sigma_IS state index and local traces are
# computed here).


def run_operation(def_: SearchStructureDef, state: DagState, op: Operation,
                  trace: list | None = None) -> bool:
    """Execute one operation to completion against `state`.

    Appends ("r", nid, record) / ("w", nid, edge_patch) steps to `trace`
    when given: the steps ``checkers`` derives from a history's read
    responses and write invocations.  Checks the proper-traversal
    discipline as it goes and raises InvariantError when a step breaks it:
    after the root, each node read is the target of an edge of some record
    read before.  The check looks at the latest record first, whose edges
    the next read usually follows."""
    gop: dict[int, NodeRec] = {}
    while True:
        nxt = def_.tau(op, gop, state.root)
        if nxt is None:
            break
        if gop and not any(nxt in r.edges.values() for r in reversed(gop.values())):
            raise InvariantError(f"{op.describe()} traversal left the "
                                 f"explored frontier at n{nxt}")
        rec = state.read(nxt)
        visit(gop, rec)
        if trace is not None:
            trace.append(("r", nxt, rec.snap()))
    plan = def_.plan_update(op, gop, state)
    for nid, patch in plan.writes:
        state.write_edges(nid, patch)
        if trace is not None:
            trace.append(("w", nid, {lab: node_token(t) for lab, t in patch.items()}))
    for nid in plan.unlink:
        state.unlink(nid)
    return plan.response


# -- local traces ---------------------------------------------------------------


def canonical_steps(trace: list[tuple]) -> tuple:
    """Rename node tokens by first appearance so traces compare up to a
    consistent bijection.  Read targets and edge pointers share one
    namespace: following a pointer and reading the pointed-to node must
    stay the same node after renaming."""
    names: dict[str, int] = {}

    def sym(token):
        if token is None:
            return None
        if token not in names:
            names[token] = len(names)
        return names[token]

    out = []
    for kind, nid, payload in trace:
        node = sym(node_token(nid))  # before the edges it points along
        edges = payload["edges"] if kind == "r" else payload
        renamed = tuple((lab, sym(t)) for lab, t in sorted(edges.items()))
        out.append(("r", node, payload["key"], payload["val"], renamed) if kind == "r"
                   else ("w", node, renamed))
    return tuple(out)


def local_trace(def_: SearchStructureDef, state: DagState,
                op: Operation) -> tuple[tuple, bool]:
    """(``canonical_steps`` of `op`'s reads and writes, its response) when
    it runs alone on a copy of `state`."""
    trace: list = []
    resp = run_operation(def_, state.clone(), op, trace)
    return canonical_steps(trace), resp


# -- Sigma_IS enumeration -----------------------------------------------------


class BudgetExceeded(Exception):
    pass


# the most sequential states ``reachable_states`` builds; a larger space
# makes local serializability inconclusive
STATE_CAP = 4000


def reachable_states(def_: SearchStructureDef, keys: tuple[int, ...]):
    """Every state the sequential code reaches from the empty structure by
    inserts and deletes of `keys`, one per canonical shape, as
    [(state, ops_path)] in BFS order.

    The BFS runs to its fixpoint, the first level that adds no new shape.
    The shapes are finite (a set of keys with a fixed layout, or a BST
    over them), so within |keys| levels.  Raises BudgetExceeded past
    ``STATE_CAP`` states.

    From each state it runs only insert(k), per key k absent from it.
    Presence is read off the state's ``canonical()`` tuple, which holds
    the key of every reachable record.  Every state here was built by
    sequential runs, which keep the structure's order invariant
    (``audit``): the reachable non-sentinel records hold exactly the
    dictionary's keys, and the search for k reaches k's record when it is
    reachable.  So an insert of a present key, or a delete of an absent
    one, ends in the state it started from.  A delete of a present key
    ends in a shape the BFS saw at an earlier level.  A state at level L
    holds at most L keys, since each operation adds at most one, and the
    shape after the delete holds one key fewer.  It is built by as many
    inserts as it has keys, at most L - 1:

    - on the skiplist and the sorted list a shape is a function of its
      key set (a key's tower height is fixed by the key), so inserting
      its keys in any order builds it;
    - on the BST any tree is built by inserting its keys in preorder.

    So skipping the deletes adds or drops no shape: the order, the paths
    and where ``STATE_CAP`` raises are those of the BFS that runs both
    operations of every key (``tests/oracles.py``
    ``bounded_reachable_states``, which also runs the skipped traversals
    through ``run_operation``'s checks)."""
    base = def_.new_state()
    out = [(base, [])]
    seen = {base.canonical()}
    frontier = [(base, [])]
    inserts = [(key, Operation("insert", key)) for key in keys]
    while frontier:
        nxt = []
        for state, path in frontier:
            present = {key for _, key, _, _ in state.canonical()}
            for key, op in inserts:
                if key in present:
                    continue
                st = state.clone()
                run_operation(def_, st, op)
                canon = st.canonical()
                if canon in seen:
                    continue
                if len(out) >= STATE_CAP:
                    raise BudgetExceeded(f"state cap {STATE_CAP} hit")
                seen.add(canon)
                entry = (st, path + [op])
                out.append(entry)
                nxt.append(entry)
        frontier = nxt
    return out


class SequentialSpace:
    """One structure's sequential side of local serializability: its
    ``reachable_states`` per key set and each operation's
    ``local_trace`` per state shape, cached as long as the structure lives.
    A local trace depends only on the shape and the operation, so all key
    sets share the traces, keyed by (shape number, operation).  Its owner,
    the structure, is passed to each call: a reference back to it would
    make a cycle that only the cyclic collector frees."""

    def __init__(self):
        self._states: dict[tuple, list] = {}  # -> [(shape, state, path)]
        self._shapes: dict[tuple, int] = {}   # canonical shape -> its number
        self._traces: dict[tuple, tuple] = {}  # (shape, op) -> local trace

    def states(self, def_: SearchStructureDef, keys: tuple[int, ...]) -> list:
        """[(shape number, state, ops_path)] of ``reachable_states`` of
        `def_`, the owner, computed on the first call for these keys."""
        keys = tuple(keys)
        out = self._states.get(keys)
        if out is None:
            shapes = self._shapes
            out = self._states[keys] = [
                (shapes.setdefault(st.canonical(), len(shapes)), st, path)
                for st, path in reachable_states(def_, keys)]
        return out

    def witness(self, def_: SearchStructureDef, states: list, op: Operation,
                steps: tuple, resp) -> list[str] | None:
        """The path to the first of `states` from which the sequential code
        of `op` on `def_`, the owner, takes exactly `steps` and returns
        `resp`, or, with `resp` None, takes `steps` as a prefix."""
        traces = self._traces
        for shape, state, path in states:
            cand = traces.get((shape, op))
            if cand is None:
                cand = traces[(shape, op)] = local_trace(def_, state, op)
            c_steps, c_resp = cand
            if resp is None:
                match = steps == c_steps[:len(steps)]
            else:
                match = steps == c_steps and resp == c_resp
            if match:
                return [o.describe() for o in path]
        return None


# -- non-triviality -----------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    key: int
    ops_to_g: tuple[Operation, ...]
    ops_to_g2: tuple[Operation, ...]


def non_triviality_witness(def_: SearchStructureDef) -> Witness:
    """A key and state where presence is detectable only at the last
    traversal step: G lacks k, G' = G + insert(k) has exactly one edge into
    the k node, and the edge's source sits >= 2 hops from the root.
    Verified by construction, never assumed."""
    for triple in _witness_candidates(def_):
        a, b, k = triple
        ops_g = (Operation("insert", a), Operation("insert", b))
        if _verify_witness(def_, k, ops_g):
            return Witness(k, ops_g, ops_g + (Operation("insert", k),))
    raise InvariantError(f"no non-triviality witness found for {def_.name}")


def _witness_candidates(def_: SearchStructureDef):
    if isinstance(def_, SkipList):
        singles = [k for k in range(1, 64) if def_.height(k) == 1]
        for i in range(len(singles) - 2):
            yield singles[i], singles[i + 1], singles[i + 2]
    else:
        for base in range(1, 8):
            yield base, base + 1, base + 2


def _verify_witness(def_: SearchStructureDef, key: int, ops_g) -> bool:
    state = def_.new_state()
    for op in ops_g:
        run_operation(def_, state, op)
    if state.find_alive(key) is not None:
        return False
    g2 = state.clone()
    run_operation(def_, g2, Operation("insert", key))
    knode = g2.find_alive(key)
    inbound = [(n, lab) for n, rec in g2.nodes.items() if rec.alive
               for lab, t in rec.edges.items() if t == knode]
    if len(inbound) != 1:
        return False
    src = inbound[0][0]
    depth = shortest_path_len(g2, src)
    return depth is not None and depth >= 2
