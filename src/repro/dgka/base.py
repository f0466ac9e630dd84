"""DGKA interface (paper Fig. 5).

A protocol run involves ``m`` instances ``Pi_U^i``.  We model each instance
as a :class:`DgkaParty` driven through broadcast rounds: in round ``r``
the parties :meth:`DgkaParty.speakers` names emit a payload, and each
party absorbs the round once it holds all of them.  Burmester-Desmedt
names every party in every round; GDH.2's chain names one.  On
completion each instance exposes the Fig. 5 variables:

* ``acc`` — success flag,
* ``sid`` — session id (hash of all messages sent and received, per the
  paper's suggestion of concatenating the communication),
* ``pid`` — the indices of the intended participants,
* ``session_key`` — the agreed secret (32 bytes, KDF-derived from the
  group element so it composes with the CGKD key via XOR in GCD Phase I).

``run_locally`` executes a set of parties without the network simulator —
used by unit tests and by adversarial harnesses that splice messages.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import hashing
from repro.errors import ProtocolError, SessionError


class DgkaParty(abc.ABC):
    """One protocol instance Pi_U^i."""

    def __init__(self, index: int, m: int) -> None:
        if not 0 <= index < m or m < 2:
            raise SessionError(f"bad party index {index} for m={m}")
        self.index = index
        self.m = m
        self.acc = False
        self._transcript: List[Tuple[int, int, object]] = []
        self._session_key: Optional[bytes] = None

    # Round-based driver interface ------------------------------------------

    @property
    @abc.abstractmethod
    def rounds(self) -> int:
        """Number of synchronous broadcast rounds."""

    def speakers(self, round_no: int) -> Sequence[int]:
        """The parties that broadcast in ``round_no`` (default: all); a
        round is complete once each of them has been heard."""
        return range(self.m)

    @abc.abstractmethod
    def emit(self, round_no: int) -> Optional[object]:
        """Payload this party broadcasts in ``round_no`` (None = silent)."""

    @abc.abstractmethod
    def absorb(self, round_no: int, payloads: Dict[int, object]) -> None:
        """Process the round's payloads, keyed by sender index (own payload
        included).  Raises :class:`ProtocolError` on malformed input."""

    # Fig. 5 outputs -----------------------------------------------------------

    @property
    def pid(self) -> Tuple[int, ...]:
        """Identities of the intended participants (all indices)."""
        return tuple(range(self.m))

    @property
    def sid(self) -> bytes:
        """Session id: digest of every message sent/received, in order."""
        return hashing.iter_digest("dgka-sid", self._flatten_transcript())

    @property
    def session_key(self) -> bytes:
        if not self.acc or self._session_key is None:
            raise SessionError("session key unavailable (acc is False)")
        return self._session_key

    def unique_string(self, index: int) -> bytes:
        """Digest of every message sent by party ``index`` as seen by this
        instance — the per-party unique string ``s`` that Phase II of the
        GCD handshake MACs (Fig. 6 footnote: "e.g., the message(s) it sent
        in the DGKA.GroupKeyAgreement execution")."""
        items = []
        for round_no, sender, payload in self._transcript:
            if sender == index:
                items.extend((round_no, _canonical(payload)))
        return hashing.iter_digest("dgka-party-string", items)

    # Helpers for subclasses ------------------------------------------------------

    def _record(self, round_no: int, sender: int, payload: object) -> None:
        self._transcript.append((round_no, sender, payload))

    def _flatten_transcript(self):
        for round_no, sender, payload in self._transcript:
            yield round_no
            yield sender
            yield _canonical(payload)

    def _finish(self, group_element: int) -> None:
        """Derive the 32-byte session key from the agreed group element and
        the session id, then mark success."""
        raw = group_element.to_bytes((group_element.bit_length() + 7) // 8 or 1, "big")
        self._session_key = hashing.kdf(raw + self.sid, "dgka-session-key")
        self.acc = True


def _canonical(payload: object):
    if payload is None:
        return None
    if isinstance(payload, (int, bytes, str)):
        return payload
    if isinstance(payload, (tuple, list)):
        return tuple(_canonical(v) for v in payload)
    if isinstance(payload, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in payload.items()))
    raise ProtocolError(f"cannot canonicalize payload type {type(payload).__name__}")


class DgkaSession:
    """Synchronous driver for a list of co-located parties.

    The optional ``tamper`` hook receives ``(round_no, sender_index,
    payload)`` and returns the payload to actually deliver — the MITM and
    splicing adversaries of the test-suite plug in here.
    """

    def __init__(self, parties: Sequence[DgkaParty], tamper=None) -> None:
        if len({p.index for p in parties}) != len(parties):
            raise SessionError("duplicate party indices")
        self.parties = list(parties)
        self.tamper = tamper

    def run(self) -> None:
        if not self.parties:
            return
        rounds = self.parties[0].rounds
        for party in self.parties:
            if party.rounds != rounds:
                raise SessionError("parties disagree on round count")
        for round_no in range(rounds):
            payloads: Dict[int, object] = {}
            for party in self.parties:
                payload = party.emit(round_no)
                if payload is not None:
                    payloads[party.index] = payload
            for party in self.parties:
                delivered = {}
                for sender, payload in payloads.items():
                    if self.tamper is not None:
                        payload = self.tamper(round_no, sender, party.index, payload)
                    if payload is not None:
                        delivered[sender] = payload
                party.absorb(round_no, delivered)


def run_locally(parties: Sequence[DgkaParty], tamper=None) -> None:
    """Run a complete session among co-located parties."""
    DgkaSession(parties, tamper).run()
