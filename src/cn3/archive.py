"""Model serialization: one self-contained binary file per trained model.

Layout: an 11-byte magic string, an 8-byte little-endian header length,
a canonical JSON header (format version, config, vocabularies, labels,
tensor names and shapes), then each tensor's raw little-endian float64
bytes in registry order. The header JSON is written with sorted keys and
no whitespace, so equal models produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import typing

import numpy as np

from . import embeddings
from .model import Cn3Model, ModelConfig

MAGIC = b"CN3ARCHIVE\x00"
FORMAT_VERSION = 1


class ArchiveError(ValueError):
    """Unreadable or inconsistent archive file."""


def _header(model: Cn3Model) -> dict:
    return {
        "version": FORMAT_VERSION,
        "config": dataclasses.asdict(model.cfg),
        "vocabs": {
            "word": model.word_vocab.items,
            "char": model.char_vocab.items,
            "pos_tag": (model.pos_tag_vocab.items
                        if model.pos_tag_vocab is not None else None),
            "rel": model.rel_vocab.items,
        },
        "labels": model.labels,
        "tensors": [{"name": name, "shape": list(t.shape)}
                    for name, t in model.state_tensors()],
    }


def _is_a(value, tp) -> bool:
    # bool is a subclass of int; a JSON true must not pass for an integer.
    return isinstance(value, tp) and (tp is bool or not isinstance(value, bool))


def _list_of(value, tp) -> bool:
    return isinstance(value, list) and all(_is_a(x, tp) for x in value)


def _check_header(header) -> None:
    """Raise ArchiveError unless every header field is present and well typed."""
    for key, tp in (("config", dict), ("vocabs", dict), ("labels", list),
                    ("tensors", list)):
        if key not in header:
            raise ArchiveError(f"archive header has no {key!r} field")
        if not isinstance(header[key], tp):
            raise ArchiveError(f"archive header field {key!r} is not a "
                               f"JSON {'object' if tp is dict else 'array'}")
    fields = typing.get_type_hints(ModelConfig)
    for key, value in header["config"].items():
        if key not in fields:
            raise ArchiveError(f"archive config has unknown key {key!r}")
        if not _is_a(value, fields[key]):
            raise ArchiveError(f"archive config key {key!r} is not a "
                               f"{fields[key].__name__}: {value!r}")
    vocabs = header["vocabs"]
    for name in ("word", "char", "pos_tag", "rel"):
        if name not in vocabs:
            raise ArchiveError(f"archive vocabs have no {name!r} entry")
        if not (_list_of(vocabs[name], str)
                or (name == "pos_tag" and vocabs[name] is None)):
            raise ArchiveError(f"archive vocab {name!r} is not a list of strings")
    if not _list_of(header["labels"], str):
        raise ArchiveError("archive labels are not a list of strings")
    for entry in header["tensors"]:
        if not (isinstance(entry, dict) and _is_a(entry.get("name"), str)
                and _list_of(entry.get("shape"), int)):
            raise ArchiveError(f"archive tensor entry {entry!r} needs a string "
                               "name and a list of integer dimensions")


def save_archive(model: Cn3Model, path: str) -> None:
    header = json.dumps(_header(model), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for _, t in model.state_tensors():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_archive(path: str) -> Cn3Model:
    """Rebuild the model; forward outputs match the saved model bitwise."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(MAGIC)] != MAGIC:
        raise ArchiveError(f"{path} is not a model archive (bad magic)")
    offset = len(MAGIC)
    if len(blob) < offset + 8:
        raise ArchiveError(f"{path} is truncated (no header length)")
    (header_len,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    if len(blob) < offset + header_len:
        raise ArchiveError(f"{path} is truncated (header cut short)")
    try:
        header = json.loads(blob[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"{path} has an unreadable header: {exc}") from exc
    offset += header_len

    if not isinstance(header, dict):
        raise ArchiveError(f"{path} has a header that is not a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise ArchiveError(f"unsupported archive version {header.get('version')!r}"
                           f" (this build reads {FORMAT_VERSION})")
    _check_header(header)
    vocabs = header["vocabs"]
    try:
        model = Cn3Model.from_parts(
            ModelConfig(**header["config"]),
            word_vocab=embeddings.Vocabulary(vocabs["word"]),
            char_vocab=embeddings.Vocabulary(vocabs["char"]),
            pos_tag_vocab=(embeddings.Vocabulary(vocabs["pos_tag"])
                           if vocabs["pos_tag"] is not None else None),
            rel_vocab=embeddings.Vocabulary(vocabs["rel"]),
            labels=header["labels"],
        )
    except ValueError as exc:
        raise ArchiveError(f"{path} holds an invalid model: {exc}") from exc

    stored = header["tensors"]
    live = model.state_tensors()
    if [e["name"] for e in stored] != [name for name, _ in live]:
        raise ArchiveError("archive tensor registry does not match the "
                           "rebuilt model; the file was written by an "
                           "incompatible configuration")
    for entry, (name, t) in zip(stored, live):
        shape = tuple(entry["shape"])
        if shape != t.shape:
            raise ArchiveError(f"tensor {name} has shape {shape} in the "
                               f"archive but {t.shape} in the model")
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if len(blob) < offset + nbytes:
            raise ArchiveError(f"{path} is truncated inside tensor {name}")
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        if not np.all(np.isfinite(values)):
            raise ArchiveError(f"{path} holds non-finite values in tensor {name}")
        t.data[...] = values.reshape(shape)
        offset += nbytes
    if offset != len(blob):
        raise ArchiveError(f"{path} has {len(blob) - offset} trailing bytes")
    return model
