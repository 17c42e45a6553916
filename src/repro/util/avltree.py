"""A self-balancing (AVL) binary search tree of integer addresses.

The paper (Section 5.2) states that GMAC "keeps memory blocks in a balanced
binary tree, which requires O(log2(n)) operations to locate a given block",
and that with small block sizes this search time becomes the dominant
page-fault overhead.  The shared-memory manager keeps every block's start
address in this tree as its Section 5.2 cost oracle: the fault cost model
charges ``t_base + t_node * steps`` per lookup, with ``steps`` the nodes a
:meth:`AvlTree.floor_steps` search visits, so Figure 11's small-block
penalty is reproduced from the same data structure the paper used.  Regions
themselves are found through the manager's range map; the tree only prices
the search.
"""


class _Node:
    __slots__ = ("key", "left", "right", "height")

    def __init__(self, key):
        self.key = key
        self.left = None
        self.right = None
        self.height = 1


def _height(node):
    return node.height if node is not None else 0


def _update(node):
    node.height = 1 + max(_height(node.left), _height(node.right))


def _balance_factor(node):
    return _height(node.left) - _height(node.right)


def _rotate_right(node):
    pivot = node.left
    node.left = pivot.right
    pivot.right = node
    _update(node)
    _update(pivot)
    return pivot


def _rotate_left(node):
    pivot = node.right
    node.right = pivot.left
    pivot.left = node
    _update(node)
    _update(pivot)
    return pivot


def _rebalance(node):
    _update(node)
    balance = _balance_factor(node)
    if balance > 1:
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if balance < -1:
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class AvlTree:
    """An ordered set of integer keys with a step-counting floor search.

    The tree's shape depends only on the keys and the order of inserts and
    deletes, so the step counts :meth:`floor_steps` reports do too.
    """

    def __init__(self):
        self._root = None
        self._size = 0

    def __len__(self):
        return self._size

    @property
    def height(self):
        return _height(self._root)

    def insert(self, key):
        """Add ``key``; a key already present is left as it is."""
        self._root, added = self._insert(self._root, key)
        if added:
            self._size += 1

    def _insert(self, node, key):
        if node is None:
            return _Node(key), True
        if key == node.key:
            return node, False
        if key < node.key:
            node.left, added = self._insert(node.left, key)
        else:
            node.right, added = self._insert(node.right, key)
        return _rebalance(node), added

    def delete(self, key):
        """Remove ``key``; raise KeyError if absent."""
        self._root, removed = self._delete(self._root, key)
        if not removed:
            raise KeyError(key)
        self._size -= 1

    def _delete(self, node, key):
        if node is None:
            return None, False
        if key < node.key:
            node.left, removed = self._delete(node.left, key)
        elif key > node.key:
            node.right, removed = self._delete(node.right, key)
        else:
            removed = True
            if node.left is None:
                return node.right, True
            if node.right is None:
                return node.left, True
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            node.key = successor.key
            node.right, _ = self._delete(node.right, successor.key)
        return _rebalance(node), removed

    def floor_steps(self, key):
        """``(k, steps)``: the largest key ``k <= key`` (None if there is
        none) and the number of nodes the search visited.

        This is the lookup the fault handler performs: blocks are keyed by
        start address, and the block containing a faulting address is the
        floor entry.  The GMAC manager *samples* these step counts into
        flat per-region arrays, so the fault hot path charges the exact
        tree cost without re-walking the tree (see
        ``Manager._fault_steps_for``).
        """
        node = self._root
        best = None
        steps = 0
        while node is not None:
            steps += 1
            if node.key == key:
                return node.key, steps
            if node.key < key:
                best = node.key
                node = node.right
            else:
                node = node.left
        return best, steps

    def check_invariants(self):
        """Validate BST ordering and AVL balance; used by property tests."""
        def walk(node, low, high):
            if node is None:
                return 0
            if not (low < node.key < high):
                raise AssertionError(f"BST order violated at key {node.key}")
            left = walk(node.left, low, node.key)
            right = walk(node.right, node.key, high)
            if abs(left - right) > 1:
                raise AssertionError(f"AVL balance violated at key {node.key}")
            height = 1 + max(left, right)
            if node.height != height:
                raise AssertionError(f"stale height at key {node.key}")
            return height

        walk(self._root, float("-inf"), float("inf"))
