"""Checkable certificates emitted by the construction routines.

A certificate carries the structure (vertex sequence or edge set), the
claims made about it, and whether the independent oracle has verified the
claims.  Constructions verify by default; callers on a timing-critical path
can skip and verify later.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .drawing import canon_edge


@dataclass(frozen=True)
class Certificate:
    kind: str  # "cycle" | "path" | "subdrawing"
    vertices: tuple
    edges: tuple  # canonical (u, v) pairs, sorted for subdrawings
    claims: dict = field(default_factory=dict)
    oracle_verified: bool = False


def _seq_edges(seq, close):
    # seq is a tuple of distinct vertices, so no pair is degenerate.
    nxt = seq[1:] + seq[:1] if close else seq[1:]
    return tuple((u, v) if u < v else (v, u) for u, v in zip(seq, nxt))


def cycle_certificate(seq, claims, verified=False):
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        raise ValueError(f"repeated vertex in cycle {seq}")
    if len(seq) < 3:
        raise ValueError(f"cycle needs >= 3 vertices, got {seq}")
    return Certificate("cycle", seq, _seq_edges(seq, close=True), dict(claims), verified)


def path_certificate(seq, claims, verified=False):
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        raise ValueError(f"repeated vertex in path {seq}")
    if len(seq) < 2:
        raise ValueError(f"path needs >= 2 vertices, got {seq}")
    return Certificate("path", seq, _seq_edges(seq, close=False), dict(claims), verified)


def subdrawing_certificate(edges, claims, verified=False):
    canon = tuple(sorted(canon_edge(u, v) for u, v in edges))
    if len(set(canon)) != len(canon):
        raise ValueError("repeated edge in subdrawing")
    verts = tuple(sorted({v for e in canon for v in e}))
    return Certificate("subdrawing", verts, canon, dict(claims), verified)


def mark_verified(cert):
    return Certificate(cert.kind, cert.vertices, cert.edges, dict(cert.claims), True)
