"""Expression-size counters, computed by walking built expressions.

They depend only on the structure of the expressions, so they repeat
exactly across runs and hash seeds.
"""

from __future__ import annotations

from polyjet.symbolic import Call, Const, Neg, Power, Product, Quotient, Sum, Var


def _children(node):
    if isinstance(node, Sum):
        return node.terms
    if isinstance(node, Product):
        return node.factors
    if isinstance(node, Power):
        return (node.base,)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Quotient):
        return (node.numerator, node.denominator)
    return ()


def _own_key(node):
    """The part of a node's structural key that is not its children."""
    if isinstance(node, Const):
        return ("C", node.value)
    if isinstance(node, Var):
        return ("V", node.name)
    if isinstance(node, Power):
        return ("W", node.exponent)
    if isinstance(node, Call):
        return ("F", node.func)
    return (type(node).__name__,)


class NodeCounter:
    """Per-entry sizes of expressions.

    * ``tree_nodes``: nodes of the fully expanded tree;
    * ``obj_nodes``: distinct objects reachable, which is what one
      ``evaluate`` call visits with its per-call identity memo;
    * ``dag_nodes``: distinct structural nodes, which is what a
      hash-consed engine would visit.

    Memos are keyed by object identity, so every expression counted must
    stay alive for the counter's lifetime.
    """

    def __init__(self):
        self._tree: dict[int, int] = {}
        self._canon: dict[int, int] = {}
        self._table: dict[tuple, int] = {}
        self._keep: list = []

    def _postorder(self, root, seen: set) -> list:
        order = []
        stack = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((c, False) for c in _children(node) if id(c) not in seen)
        return order

    def entry(self, expr) -> tuple[int, int, int]:
        """(tree_nodes, obj_nodes, dag_nodes) of one expression."""
        self._keep.append(expr)
        seen: set[int] = set()
        order = self._postorder(expr, seen)
        tree, canon, table = self._tree, self._canon, self._table
        for node in order:
            key = id(node)
            if key in canon:
                continue
            kids = _children(node)
            tree[key] = 1 + sum(tree[id(c)] for c in kids)
            skey = _own_key(node) + tuple(canon[id(c)] for c in kids)
            canon[key] = table.setdefault(skey, len(table))
        return (tree[id(expr)], len(seen),
                len({canon[k] for k in seen}))

    def total(self, exprs) -> dict:
        sums = [0, 0, 0]
        for e in exprs:
            for k, v in enumerate(self.entry(e)):
                sums[k] += v
        return dict(zip(("tree_nodes", "obj_nodes", "dag_nodes"), sums))


def connection_entries(N) -> list:
    """Every N1 and N2 entry of a nonlinear connection, in index order."""
    return [e for block in (N.n1, N.n2) for sheet in block for row in sheet
            for e in row]
