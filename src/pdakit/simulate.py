"""Execute a PDA as one coded-caching round: place, deliver, decode.

Files are byte sequences split into f subfiles of ceil(F/f) bytes each
(zero padded); user k caches subfile j of every file exactly when the PDA
has a star at (j, k), so the cached fraction is Z/f.  Delivery sends one
XOR per label, combining the demanded subfiles at that label's cells, which
is |S| transmissions for a rate of |S|/f.  A user recovers a missing
subfile by XOR-ing its transmission with the peer subfiles, all of which
the Blackburn property guarantees are in its cache.

Decoding deliberately uses only the cache and the transmissions (plus the
announced demand vector), never the library, so a byte-for-byte match is an
end-to-end correctness check of the scheme.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Pda, params
from .errors import DecodeError

__all__ = [
    "Library",
    "make_library",
    "Transmission",
    "RunReport",
    "place",
    "deliver",
    "decode",
    "run",
]


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


@dataclass(frozen=True)
class Library:
    """N files of ``file_size`` bytes, each split into f equal subfiles."""

    files: tuple
    file_size: int
    f: int

    @property
    def n_files(self) -> int:
        return len(self.files)

    @property
    def subfile_size(self) -> int:
        return -(-self.file_size // self.f)

    def subfile(self, i: int, j: int) -> bytes:
        """Subfile j of file i, zero padded to the subfile size."""
        size = self.subfile_size
        return self.files[i][j * size : (j + 1) * size].ljust(size, b"\x00")


def make_library(n_files: int, file_size: int, f: int, seed: int = 0) -> Library:
    rng = random.Random(seed)
    return Library(
        files=tuple(rng.randbytes(file_size) for _ in range(n_files)),
        file_size=file_size,
        f=f,
    )


@dataclass(frozen=True)
class Transmission:
    label: int
    payload: bytes


@dataclass(frozen=True)
class RunReport:
    decode_ok: tuple
    transmissions_count: int
    achieved_rate: Fraction
    subpacketization: int
    bytes_sent: int

    @property
    def all_ok(self) -> bool:
        return all(self.decode_ok)


def place(p: Pda, lib: Library) -> tuple:
    """Per-user cache contents: subfile (i, j) for every file i and star row j."""
    if lib.f != p.rows:
        raise ValueError(
            f"library is split into {lib.f} subfiles but the PDA has {p.rows} rows"
        )
    caches = []
    for k in range(p.cols):
        star_rows = [j for j in range(p.rows) if p.cell(j, k) is None]
        caches.append(
            {
                (i, j): lib.subfile(i, j)
                for i in range(lib.n_files)
                for j in star_rows
            }
        )
    return tuple(caches)


def deliver(p: Pda, demands: Sequence[int], lib: Library) -> list:
    """One transmission per label in ascending order: the XOR over the
    label's cells of the subfile each cell's user demanded."""
    _check_demands(p, demands, lib.n_files)
    out = []
    for s in sorted(p._label_index):
        payload = None
        for j, k in p._cells_of(s):
            sub = lib.subfile(demands[k], j)
            payload = sub if payload is None else _xor(payload, sub)
        out.append(Transmission(s, payload))
    return out


def _check_demands(p: Pda, demands: Sequence[int], n_files: int) -> None:
    if len(demands) != p.cols:
        raise ValueError(f"need {p.cols} demands, got {len(demands)}")
    for d in demands:
        if not 0 <= d < n_files:
            raise ValueError(f"demand {d} out of range [0,{n_files})")


def decode(
    p: Pda,
    user: int,
    demands: Sequence[int],
    cache,
    transmissions: Sequence[Transmission],
) -> bytes:
    """Reconstruct the file user ``user`` demanded, using only its cache and
    the broadcast (transmissions plus the announced demand vector).

    Raises :class:`DecodeError` when ``user`` is not a column of ``p``, when
    ``demands`` does not name one file per column, or when a subfile or
    transmission it needs is missing: a peer subfile that the Blackburn
    property promises (the signature of an invalid array reaching the
    simulator), a cached subfile of its own, or the transmission for one of
    its labels.
    """
    if not 0 <= user < p.cols:
        raise DecodeError(f"user {user} out of range [0,{p.cols})")
    if len(demands) != p.cols:
        raise DecodeError(f"need {p.cols} demands, got {len(demands)}")
    d = demands[user]
    by_label = {t.label: t.payload for t in transmissions}
    own = cache[user]
    parts = []
    for j in range(p.rows):
        s = p.cell(j, user)
        if s is None:
            sub = own.get((d, j))
            if sub is None:
                raise DecodeError(
                    f"user {user} misses its own cached subfile (file {d}, subfile {j})"
                )
            parts.append(sub)
            continue
        piece = by_label.get(s)
        if piece is None:
            raise DecodeError(f"user {user} received no transmission for label {s}")
        for j2, k2 in p._cells_of(s):
            if k2 == user:
                continue
            peer = own.get((demands[k2], j2))
            if peer is None:
                raise DecodeError(
                    f"user {user} misses peer subfile (file {demands[k2]}, "
                    f"subfile {j2}) needed to decode label {s}"
                )
            piece = _xor(piece, peer)
        parts.append(piece)
    return b"".join(parts)


def run(
    p: Pda,
    n_files: int,
    file_size: int,
    demands: "Sequence[int] | None" = None,
    seed: int = 0,
) -> RunReport:
    """Full round over a fresh library; demands drawn from ``seed`` when not given."""
    info = params(p)
    rng = random.Random(seed)
    lib = make_library(n_files, file_size, p.rows, seed=rng.randrange(2**32))
    if demands is None:
        demands = [rng.randrange(n_files) for _ in range(p.cols)]
    caches = place(p, lib)
    transmissions = deliver(p, demands, lib)
    decode_ok = tuple(
        decode(p, k, demands, caches, transmissions)[:file_size]
        == lib.files[demands[k]]
        for k in range(p.cols)
    )
    return RunReport(
        decode_ok=decode_ok,
        transmissions_count=len(transmissions),
        achieved_rate=info.rate,
        subpacketization=info.f,
        bytes_sent=sum(len(t.payload) for t in transmissions),
    )
