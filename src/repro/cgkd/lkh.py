"""Logical Key Hierarchy (key graphs; Wong-Gouda-Lam [33]).

The GC maintains a binary key tree: leaves are members, internal nodes hold
auxiliary keys, the root key is the group key.  A member stores the keys on
its leaf-to-root path (O(log n)); a Join/Leave replaces only the keys on one
path, so a rekey broadcast carries O(log n) ciphertexts — the paper's
primary CGKD citation for instantiation 1.

Node numbering is heap-style: root = 1, children of ``i`` are ``2i`` and
``2i+1``; leaves occupy ``[capacity, 2*capacity)``.  When the tree fills up,
capacity doubles by grafting the old tree as the *left child* of a new
root; every old node id ``i`` becomes ``i + 2^(bitlen(i)-1)`` (insert a 0
after the leading 1 of the heap path).  Rekey messages carry a ``grow``
header so members renumber their local key sets identically.

Strong security (Xu [34]): replacement keys are always fresh random values
— never derived from prior keys — and delivered under authenticated
encryption, so revoked members learn nothing about future keys and later
corruptions reveal nothing about earlier epochs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.cgkd.base import (
    GroupController,
    MemberState,
    RekeyMessage,
    WelcomePackage,
    fresh_key,
    require_member,
    require_not_member,
)
from repro.crypto import symmetric
from repro.errors import DecryptionError, MembershipError


def renumber_after_grow(node_id: int) -> int:
    """Map an old node id to its id after one capacity doubling."""
    return node_id + (1 << (node_id.bit_length() - 1))


def _is_ancestor_or_self(ancestor: int, leaf: int) -> bool:
    diff = leaf.bit_length() - ancestor.bit_length()
    return diff >= 0 and (leaf >> diff) == ancestor


class LkhController(GroupController):
    """GC side of the key tree."""

    def __init__(self, initial_capacity: int = 4,
                 rng: Optional[random.Random] = None) -> None:
        if initial_capacity < 2 or initial_capacity & (initial_capacity - 1):
            raise MembershipError("capacity must be a power of two >= 2")
        self._capacity = initial_capacity
        self._rng = rng
        self._epoch = 0
        self._leaf_of: Dict[str, int] = {}
        self._user_at: Dict[int, str] = {}
        self._keys: Dict[int, bytes] = {}

    # Introspection -----------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def group_key(self) -> bytes:
        if 1 not in self._keys:
            raise MembershipError("group is empty; no group key yet")
        return self._keys[1]

    def members(self) -> List[str]:
        return sorted(self._leaf_of)

    def key_count(self) -> int:
        return len(self._keys)

    # Internals ----------------------------------------------------------------

    def _free_leaf(self) -> Optional[int]:
        for leaf in range(self._capacity, 2 * self._capacity):
            if leaf not in self._user_at:
                return leaf
        return None

    def _grow(self) -> None:
        self._keys = {renumber_after_grow(i): k for i, k in self._keys.items()}
        self._user_at = {renumber_after_grow(i): u for i, u in self._user_at.items()}
        self._leaf_of = {u: renumber_after_grow(i) for u, i in self._leaf_of.items()}
        self._capacity *= 2

    def _occupied(self, node_id: int) -> bool:
        """True iff some member leaf lives under ``node_id``."""
        if node_id >= self._capacity:
            return node_id in self._user_at
        return any(_is_ancestor_or_self(node_id, leaf) for leaf in self._user_at)

    def _replace_path_keys(
        self, leaf: int, skip_leaf: Optional[int] = None
    ) -> Tuple[List[Tuple[int, int, bytes]], Dict[int, bytes]]:
        """Replace every key on ``parent(leaf)..root`` with fresh keys.

        Returns (deliveries, new_path_keys).  Each replaced node's new key
        is encrypted under the current key of each occupied child (a child
        replaced earlier in the same pass uses its *new* key).
        ``skip_leaf`` marks a just-removed leaf that must receive nothing.
        """
        deliveries: List[Tuple[int, int, bytes]] = []
        new_keys: Dict[int, bytes] = {}
        node = leaf // 2
        while node >= 1:
            if not self._occupied(node):
                self._keys.pop(node, None)
                node //= 2
                continue
            new_key = fresh_key(self._rng)
            for child in (2 * node, 2 * node + 1):
                if child == skip_leaf:
                    continue
                child_key = self._keys.get(child)
                if child_key is None:
                    continue
                deliveries.append(
                    (node, child, symmetric.encrypt(child_key, new_key, self._rng))
                )
            self._keys[node] = new_key
            new_keys[node] = new_key
            node //= 2
        return deliveries, new_keys

    # Operations -----------------------------------------------------------------

    def join(self, user_id: str) -> Tuple[WelcomePackage, RekeyMessage]:
        require_not_member(self._leaf_of, user_id)
        grew = False
        leaf = self._free_leaf()
        if leaf is None:
            self._grow()
            grew = True
            leaf = self._free_leaf()
            assert leaf is not None
        leaf_key = fresh_key(self._rng)
        self._leaf_of[user_id] = leaf
        self._user_at[leaf] = user_id
        self._keys[leaf] = leaf_key
        deliveries, new_path_keys = self._replace_path_keys(leaf)
        self._epoch += 1
        welcome_keys = dict(new_path_keys)
        welcome_keys[leaf] = leaf_key
        welcome = WelcomePackage(
            user_id=user_id,
            epoch=self._epoch,
            keys=welcome_keys,
            extra={"leaf": leaf, "capacity": self._capacity},
        )
        message = RekeyMessage(
            self._epoch, "join", tuple(deliveries), header={"grow": grew}
        )
        return welcome, message

    def leave(self, user_id: str) -> RekeyMessage:
        require_member(self._leaf_of, user_id)
        leaf = self._leaf_of.pop(user_id)
        del self._user_at[leaf]
        del self._keys[leaf]
        deliveries, _ = self._replace_path_keys(leaf, skip_leaf=leaf)
        self._epoch += 1
        return RekeyMessage(self._epoch, "leave", tuple(deliveries))

    def leave_many(self, user_ids: List[str]) -> List[RekeyMessage]:
        """Batched Leave: remove every member in one epoch, replacing the
        *union* of the removed leaves' ancestor paths exactly once.

        k sequential leaves rekey up to k*log(n) nodes and broadcast k
        messages; the batch rekeys |union of paths| <= k*log(n) nodes
        (shared ancestors fresh-keyed once) in a single broadcast, which
        is what lets a revocation epoch cost one CGKD rekey regardless of
        how many members it removes.
        """
        ids = list(user_ids)
        if not ids:
            return []
        if len(set(ids)) != len(ids):
            raise MembershipError("duplicate user in batched leave")
        for user_id in ids:
            require_member(self._leaf_of, user_id)
        removed: set = set()
        for user_id in ids:
            leaf = self._leaf_of.pop(user_id)
            del self._user_at[leaf]
            del self._keys[leaf]
            removed.add(leaf)
        ancestors: set = set()
        for leaf in removed:
            node = leaf // 2
            while node >= 1:
                ancestors.add(node)
                node //= 2
        deliveries: List[Tuple[int, int, bytes]] = []
        # Bottom-up (deepest first) so a child key replaced earlier in the
        # same pass encrypts its parent's delivery — the same single-pass
        # decryption contract as _replace_path_keys.
        for node in sorted(ancestors, key=lambda i: (-i.bit_length(), i)):
            if not self._occupied(node):
                self._keys.pop(node, None)
                continue
            new_key = fresh_key(self._rng)
            for child in (2 * node, 2 * node + 1):
                if child in removed:
                    continue
                child_key = self._keys.get(child)
                if child_key is None:
                    continue
                deliveries.append(
                    (node, child, symmetric.encrypt(child_key, new_key, self._rng))
                )
            self._keys[node] = new_key
        self._epoch += 1
        return [RekeyMessage(self._epoch, "leave", tuple(deliveries),
                             header={"batch": len(ids)})]


class LkhMember(MemberState):
    """Member state: leaf id plus the path keys."""

    def __init__(self, welcome: WelcomePackage) -> None:
        self.user_id = welcome.user_id
        self._leaf = welcome.extra["leaf"]
        self._keys: Dict[int, bytes] = dict(welcome.keys)
        self._epoch = welcome.epoch
        self._acc = True

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def acc(self) -> bool:
        return self._acc

    @property
    def leaf(self) -> int:
        return self._leaf

    @property
    def group_key(self) -> bytes:
        return self._keys[1]

    def key_count(self) -> int:
        return len(self._keys)

    def rekey(self, message: RekeyMessage) -> bool:
        if message.epoch <= self._epoch:
            return self._acc
        self._acc = False
        if message.header.get("grow"):
            self._keys = {renumber_after_grow(i): k for i, k in self._keys.items()}
            self._leaf = renumber_after_grow(self._leaf)
        decrypted_any = False
        # Deliveries were appended bottom-up by the controller, so a single
        # in-order pass lets a new child key unlock its parent's delivery.
        for target, enc_under, ciphertext in message.deliveries:
            if not _is_ancestor_or_self(target, self._leaf):
                continue
            key = self._keys.get(enc_under)
            if key is None:
                continue
            try:
                self._keys[target] = symmetric.decrypt(key, ciphertext)
            except DecryptionError:
                return False
            decrypted_any = True
        if not decrypted_any:
            return False
        self._epoch = message.epoch
        self._acc = True
        return True
