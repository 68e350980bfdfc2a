"""The host reference task: a fixed Python process that times the host, not paracount.

It does what a paracount CLI process does in kind, but runs none of the
repository's code, so its time changes with the host's speed and with
nothing a commit does.  A CLI process spends about half its time importing
(paracount's modules and the stdlib they pull in), and that part slows most
when the host does; so this task imports about as much of the stdlib as a
CLI process imports in all, defines a few dataclasses, then counts walks
with pure-Python dicts and integers, and prints a digest of the count,
which must equal `DIGEST`.  The benchmark runs it between instances and
scales its timings by it (see `bench.host_factor`).
"""
import argparse
import configparser  # noqa: F401  (imported for the start-up work only)
import csv  # noqa: F401
import difflib  # noqa: F401
import email.message  # noqa: F401
import hashlib
import http.client  # noqa: F401
import itertools  # noqa: F401
import json
import logging  # noqa: F401
import math  # noqa: F401
import pprint  # noqa: F401
import random  # noqa: F401
import statistics  # noqa: F401
import tomllib  # noqa: F401
import unittest  # noqa: F401
import xml.etree.ElementTree  # noqa: F401
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple = ()


@dataclass
class Node:
    op: str
    args: list = field(default_factory=list)


@dataclass(frozen=True)
class Program:
    layers: int
    labels: tuple = ()
    source: int = 0
    sink: int = 0


N, K = 60, 100
DIGEST = "1799746d57d23161"


def walks(n: int, k: int) -> int:
    """Walks of length k from every fourth vertex of a fixed 3-out digraph."""
    succ = [[(7 * u + 3) % n, (u * u + 1) % n, (5 * u + 11) % n] for u in range(n)]
    total = 0
    for s in range(0, n, 4):
        frontier = {s: 1}
        for _ in range(k):
            nxt: dict[int, int] = {}
            for u, c in frontier.items():
                for v in succ[u]:
                    nxt[v] = nxt.get(v, 0) + c
            frontier = nxt
        total += sum(frontier.values())
    return total


def main() -> None:
    argparse.ArgumentParser(prog="hostref").parse_args()
    text = json.dumps({"n": N, "k": K, "count": str(walks(N, K))})
    print(hashlib.sha256(text.encode()).hexdigest()[:16])


if __name__ == "__main__":
    main()
