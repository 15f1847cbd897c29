"""Execute a PDA as one coded-caching round: place, deliver, decode.

Files are byte sequences split into f subfiles of ceil(F/f) bytes each
(zero padded); user k caches subfile j of every file exactly when the PDA
has a star at (j, k), so the cached fraction is Z/f.  Delivery sends one
XOR per label, combining the demanded subfiles at that label's cells, which
is |S| transmissions for a rate of |S|/f.  A user recovers a missing
subfile by XOR-ing its transmission with the peer subfiles, all of which
the Blackburn property guarantees are in its cache.

A library splits each file into its subfiles once, on first use, and
:meth:`Library.subfile`, the caches and the broadcast's memo all hold those
same read-only ``bytes`` objects, so the caches take Z/f of the library
once rather than once per user.  An XOR is one integer fold per
transmission.  :func:`deliver` reads each distinct subfile as a big-endian
integer once, into a memo keyed by ``bytes`` value that also holds each
payload's integer, and sends with each transmission its header: the
(column, (file, subfile)) components it XOR-ed.  The broadcast carries both,
so every user decoding from it converts nothing already converted and
derives no header already sent.

Decoding deliberately uses only the cache and the transmissions (plus the
announced demand vector), never the library, so a byte-for-byte match is an
end-to-end correctness check of the scheme.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Mapping, NamedTuple, Sequence

from .core import Pda, _check_kind, _check_pda, _Frozen, params
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


class Library(_Frozen):
    """N files of ``file_size`` bytes, each split into f equal subfiles.

    ValueError unless ``files`` is a tuple of at least one ``bytes`` file,
    ``file_size`` an int >= 0 that is every file's length, and ``f`` an
    int >= 1.  The files are split once, on first use.
    """

    _fields = ("files", "file_size", "f")

    def __init__(self, files: tuple, file_size: int, f: int):
        _check_sizes(len(_check_kind(files, "files", tuple)), file_size, f)
        for i, data in enumerate(files):
            if not isinstance(data, bytes):
                raise ValueError(f"files must hold bytes, got {type(data).__name__} for file {i}")
            if len(data) != file_size:
                raise ValueError(f"file {i} has {len(data)} bytes, not {file_size}")
        self.__dict__.update(files=files, file_size=file_size, f=f)

    @property
    def n_files(self) -> int:
        return len(self.files)

    @property
    def subfile_size(self) -> int:
        return -(-self.file_size // self.f)

    @cached_property
    def _subfiles(self) -> tuple:
        """Each file's f subfiles, zero padded; a subfile that needs no
        padding is the file's slice, and the file itself when f is 1."""
        size, f = self.subfile_size, self.f
        return tuple(
            tuple(data[j * size : (j + 1) * size].ljust(size, b"\x00") for j in range(f))
            for data in self.files
        )

    def subfile(self, i: int, j: int) -> bytes:
        """Subfile j of file i, zero padded to the subfile size; ValueError
        when ``i`` is no file or ``j`` no subfile of the library."""
        for what, index, bound in (("file", i, self.n_files), ("subfile", j, self.f)):
            if not 0 <= index < bound:
                raise ValueError(f"{what} {index} is out of range for a library of "
                                 f"{self.n_files} files split into {self.f} subfiles")
        return self._subfiles[i][j]


def _check_sizes(n_files: int, file_size: int, f: int) -> None:
    """ValueError naming the first of ``n_files``, ``file_size`` and ``f`` no library takes."""
    if _check_kind(n_files, "n_files", int) < 1:
        raise ValueError(f"need at least one file, got {n_files}")
    if _check_kind(file_size, "file_size", int) < 0:
        raise ValueError(f"file size must be non-negative, got {file_size}")
    if _check_kind(f, "f", int) < 1:
        raise ValueError(f"subpacketization must be positive, got {f}")


def make_library(n_files: int, file_size: int, f: int, seed: int = 0) -> Library:
    """``n_files`` seeded random files of ``file_size`` bytes split into f
    subfiles; ValueError unless n_files >= 1, file_size >= 0 and f >= 1."""
    _check_sizes(n_files, file_size, f)
    rng = random.Random(seed)
    return Library(
        files=tuple(rng.randbytes(file_size) for _ in range(n_files)),
        file_size=file_size,
        f=f,
    )


class Transmission(NamedTuple):
    label: int
    payload: bytes


class RunReport(NamedTuple):
    decode_ok: tuple
    transmissions_count: int
    achieved_rate: Fraction
    subpacketization: int
    bytes_sent: int

    @property
    def all_ok(self) -> bool:
        return all(self.decode_ok)


# The witness a DecodeError carries as ``report``; a missing own subfile has ``label`` None.
UserOutOfRange = NamedTuple("UserOutOfRange", [("user", int), ("cols", int)])
MissingSubfile = NamedTuple("MissingSubfile",
                            [("user", int), ("file", int), ("subfile", int), ("label", "int | None")])
MissingTransmission = NamedTuple("MissingTransmission", [("user", int), ("label", int)])
WrongLength = NamedTuple("WrongLength", [("key", object), ("length", int), ("expected", int)])


class _Broadcast(list):
    """One round's transmissions and what :func:`deliver` hands :func:`decode`:
    the subfile ``size``, the memo ``ints`` from each subfile or payload it
    read to its integer, the array ``pda`` it served, its ``demands`` tuple,
    and ``headers``, each label's (column, (file, subfile)) components."""


def place(p: Pda, lib: Library) -> tuple:
    """Per-user cache contents: subfile (i, j) for every file i and star row j.

    Returns a plain tuple of per-user dicts, keys in file-major then row
    order.  Every user caching (i, j) maps it to the library's one ``bytes``
    object for that subfile; callers must treat the caches as read-only.
    """
    _check_split(p, lib)
    caches = tuple({} for _ in range(p.cols))
    star_caches = []
    for j in range(p.rows):
        holders = [caches[k] for k, c in enumerate(p.row(j)) if c is None]
        if holders:
            star_caches.append((j, holders))
    for i, subs in enumerate(lib._subfiles):
        for j, holders in star_caches:
            key, sub = (i, j), subs[j]
            for cache in holders:
                cache[key] = sub
    return caches


def deliver(p: Pda, demands: Sequence[int], lib: Library) -> list:
    """The broadcast: one transmission per label in ascending order, the XOR
    over the label's cells of the subfile each cell's user demanded, folded as
    one integer.  Each distinct subfile becomes an integer once; the list
    carries those integers and each payload's in :func:`decode`'s memo, with
    each label's header, the subfile size, the array and the demands.
    ValueError unless ``demands`` is a sequence, with one int in range per column."""
    _check_split(p, lib)
    _check_per_user(p, demands, "demands")
    for d in demands:
        if isinstance(d, bool) or not isinstance(d, int) or not 0 <= d < lib.n_files:
            raise ValueError(f"demand {d!r} out of range [0,{lib.n_files})")
    w, size, index, subs = p.cols, lib.subfile_size, p._label_index, lib._subfiles
    out, ints, headers = _Broadcast(), {}, {}
    out.size, out.ints, out.pda, out.demands, out.headers = size, ints, p, tuple(demands), headers
    for s in sorted(index):
        acc, header = 0, _header(index[s], w, demands)
        headers[s] = header
        for _, (i, j) in header:
            sub = subs[i][j]
            if (x := ints.get(sub)) is None:
                x = ints[sub] = int.from_bytes(sub, "big")
            acc ^= x
        payload = acc.to_bytes(size, "big")
        ints[payload] = acc
        out.append(Transmission(s, payload))
    return out


def _header(flat: list, w: int, demands: Sequence[int]) -> tuple:
    """A label's components, one (column, (file, subfile)) per cell in label-index order."""
    return tuple((k, (demands[k], j)) for j, k in map(divmod, flat, repeat(w)))


def _check_split(p: Pda, lib: Library) -> None:
    if _check_pda(p, "array").rows != _check_kind(lib, "library", Library).f:
        raise ValueError(f"library is split into {lib.f} subfiles but the PDA has {p.rows} rows")


def _check_per_user(p: Pda, values: Sequence, what: str) -> None:
    if len(_check_kind(values, what, Sequence)) != p.cols:
        raise ValueError(f"need {p.cols} {what}, got {len(values)}")


def decode(
    p: Pda,
    user: int,
    demands: Sequence[int],
    cache,
    transmissions: Sequence[Transmission],
) -> bytes:
    """Reconstruct the file user ``user`` demanded, using only its cache and
    the broadcast (transmissions plus the announced demand vector).

    Peers and payloads become integers through a memo keyed by ``bytes`` value: the one
    :func:`deliver`'s list carries when the user expects its subfile size, else a fresh one.
    Each label's components are the header that list carries when it was delivered for
    this same ``p`` and equal demands, else they are derived from ``p`` for this call.

    Raises ValueError when ``user`` or a demand is not an int, ``demands`` or ``cache`` is
    not a sequence with one entry per column of ``p``, ``transmissions`` is not (label, payload) pairs,
    or the user's cache is no dict, or a cached value or payload that is not bytes stops it.
    Raises :class:`DecodeError` when ``user`` is not a column of ``p``, when a subfile or
    transmission it needs is missing: a peer subfile that the Blackburn property promises
    (the signature of an invalid array reaching the simulator), a cached subfile of its own,
    or the transmission for one of its labels; or when a cached subfile or payload it reads,
    or its first cached value, has a length most of its cached values and payloads do not.
    """
    if not 0 <= _check_kind(user, "user", int) < _check_pda(p, "array").cols:
        raise DecodeError(f"user {user} out of range [0,{p.cols})", UserOutOfRange(user, p.cols))
    _check_per_user(p, demands, "demands")
    for d in demands:
        _check_kind(d, f"demand {d!r}", int)
    _check_per_user(p, cache, "caches")
    d = demands[user]
    _check_kind(transmissions, "transmissions")
    try:
        by_label = dict(transmissions)
    except (TypeError, ValueError):
        raise ValueError("transmissions must be (label, payload) pairs") from None
    own = cache[user]
    try:
        size = len(next(iter(own.values()), next(iter(by_label.values()), b"")))
        shared = type(transmissions) is _Broadcast
        ints = transmissions.ints if shared and transmissions.size == size else {}
        headers = (transmissions.headers if shared and transmissions.pda is p
                   and transmissions.demands == tuple(demands) else None)
        w, index = p.cols, p._label_index
        parts = []
        for j, s in enumerate(p.column(user)):
            if s is None:
                sub = own.get((d, j))
                if sub is None:
                    raise DecodeError(f"user {user} misses its own cached subfile (file {d}, subfile {j})",
                                      MissingSubfile(user, d, j, None))
                if len(sub) != size:
                    raise _length_error(user, own, by_label, (d, j), len(sub), size)
                parts.append(sub)
                continue
            piece = by_label.get(s)
            if piece is None:
                raise DecodeError(f"user {user} received no transmission for label {s}",
                                  MissingTransmission(user, s))
            if (acc := ints.get(piece)) is None:
                if len(piece) != size:
                    raise _length_error(user, own, by_label, s, len(piece), size)
                acc = ints[piece] = int.from_bytes(piece, "big")
            for k2, key in headers[s] if headers is not None else _header(index[s], w, demands):
                if k2 == user:
                    continue
                peer = own.get(key)
                if peer is None:
                    raise DecodeError(f"user {user} misses peer subfile (file {key[0]}, "
                                      f"subfile {key[1]}) needed to decode label {s}",
                                      MissingSubfile(user, *key, s))
                if (x := ints.get(peer)) is None:
                    if len(peer) != size:
                        raise _length_error(user, own, by_label, key, len(peer), size)
                    x = ints[peer] = int.from_bytes(peer, "big")
                acc ^= x
            parts.append(acc.to_bytes(size, "big"))
        return b"".join(parts)
    except (TypeError, AttributeError, DecodeError) as e:
        raise _not_bytes(user, own, by_label) or e from None


def _not_bytes(user, own, by_label) -> "ValueError | None":
    """The user's cache if no dict, else its first value, then first payload, not bytes."""
    if not isinstance(own, Mapping):
        return ValueError(f"caches[{user}] must be a dict, got {type(own).__name__}")
    for where, kind, values in ((f"caches[{user}]", "key", own), ("transmissions", "label", by_label)):
        for key, v in values.items():
            if not isinstance(v, bytes):
                what = f"{type(v).__name__} for {kind} {key!r}"
                return ValueError(f"{where} must hold bytes, got {what}")


def _length_error(user, own, by_label, key, n, size) -> DecodeError:
    """Names the value at cache key or label ``key``, read at ``n`` bytes, or the
    first cached value (or payload), which set ``size``, if most values have ``n``."""
    lengths = [len(v) for v in (*own.values(), *by_label.values())]
    if max(set(lengths), key=lengths.count) == n:
        key, n, size = next(iter(own or by_label)), size, n
    name = (f"user {user} cached subfile (file {key[0]}, subfile {key[1]})" if type(key) is tuple
            else f"label {key} payload")
    return DecodeError(f"{name} has {n} bytes, not {size}", WrongLength(key, n, size))


def run(
    p: Pda,
    n_files: int,
    file_size: int,
    demands: "Sequence[int] | None" = None,
    seed: int = 0,
) -> RunReport:
    """Full round over a fresh library; demands drawn from ``seed`` when not given.

    Raises :class:`InvalidPdaError` for an invalid ``p`` and ValueError for
    a file count, file size or demand vector the round cannot use.
    """
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
