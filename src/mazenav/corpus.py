"""Corpus persistence: one .maze description file per maze plus a manifest
recording ids, roles (test/shot), generation config, and content hashes.

``build_corpus`` returns the corpus it wrote: the generated mazes under the
ids ``save_corpus`` gave them, and the manifest's config. It reads nothing
back. ``load_corpus`` is the only thing that parses corpus files; it checks
the manifest's shape and every file's sha256, and parses every file on each
load. Before it reads any file it checks every entry: ``id``, ``role``,
``file`` and ``sha256`` are strings, and no two entries share an id or a
file, since runs, records and reports key each maze by its id. A manifest
that is not JSON and a maze file that is not UTF-8 text raise
``CorpusError`` naming the file. ``hashlib`` is imported on the first hash,
so a command that neither writes nor reads a corpus does not load it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .generate import GenConfig, generate_corpus
from .grid import Maze
from .textform import parse, read_utf8, serialize

MANIFEST_NAME = "manifest.json"
FORMAT = "maze-corpus/1"


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class Corpus:
    tests: tuple  # ((maze_id, Maze), ...)
    shots: tuple
    config: dict


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_corpus(directory, tests: list[Maze], shots: list[Maze], cfg: GenConfig) -> Corpus:
    """Write one file per maze and the manifest; return the corpus written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries, written = [], []
    for role, mazes in (("test", tests), ("shot", shots)):
        written.append(tuple((f"{role}-{i:03d}", maze) for i, maze in enumerate(mazes)))
        for maze_id, maze in written[-1]:
            text = serialize(maze).text
            filename = f"{maze_id}.maze"
            (directory / filename).write_text(text, encoding="utf-8")
            entries.append(
                {"id": maze_id, "role": role, "file": filename, "sha256": _sha256(text)}
            )
    manifest = {
        "format": FORMAT,
        "config": dataclasses.asdict(cfg),
        "mazes": entries,
    }
    path = directory / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return Corpus(*written, manifest["config"])


def build_corpus(directory, cfg: GenConfig, n_test: int, n_shot: int) -> Corpus:
    tests, shots = generate_corpus(cfg, n_test, n_shot)
    return save_corpus(directory, tests, shots, cfg)


def load_corpus(directory) -> Corpus:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise CorpusError(f"no {MANIFEST_NAME} in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as err:  # not UTF-8, or not JSON
        raise CorpusError(f"cannot read {manifest_path}: {err}") from None
    if not isinstance(manifest, dict):
        raise CorpusError(f"{manifest_path} is not a JSON object")
    if manifest.get("format") != FORMAT:
        raise CorpusError(f"unsupported corpus format: {manifest.get('format')!r}")
    if not isinstance(manifest.get("mazes"), list) or not isinstance(manifest.get("config"), dict):
        raise CorpusError(f"{manifest_path}: mazes must be a list and config an object")
    # Every entry is checked before any file is read: runs key prompts, records
    # and reports by id, so a repeated id or file would merge two mazes.
    seen = {"id": set(), "file": set()}
    for entry in manifest["mazes"]:
        if not isinstance(entry, dict) or not all(
                isinstance(entry.get(f), str) for f in ("id", "role", "file", "sha256")):
            raise CorpusError(f"{manifest_path}: an entry lacks a string id, role, file or "
                              f"sha256: {entry!r}")
        if entry["role"] not in ("test", "shot"):
            raise CorpusError(f"{manifest_path}: {entry['id']} has unknown role {entry['role']!r}")
        for name, values in seen.items():
            if entry[name] in values:
                raise CorpusError(f"{manifest_path}: {entry['id']} repeats the {name} "
                                  f"{entry[name]!r}")
            values.add(entry[name])
    tests, shots = [], []
    for entry in manifest["mazes"]:
        path = directory / entry["file"]
        try:
            text = read_utf8(path)
        except ValueError as err:
            raise CorpusError(str(err)) from None
        if _sha256(text) != entry["sha256"]:
            raise CorpusError(f"checksum mismatch for {entry['file']}")
        try:
            maze = parse(text)
        except ValueError as err:
            raise CorpusError(f"{path}: {err}") from None
        target = tests if entry["role"] == "test" else shots
        target.append((entry["id"], maze))
    return Corpus(tuple(tests), tuple(shots), manifest["config"])
