"""Deterministic JSON emission.

The stdlib json module hardwires float formatting to repr(). Reports must be
byte-identical across runs, with floats at 17 significant digits (enough
for exact round-trip), so this module renders JSON directly.
Keys are emitted in sorted order.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np


def format_float(x: float) -> str:
    if isinstance(x, (np.floating,)):
        x = float(x)
    if math.isnan(x):
        raise ValueError("cannot serialize NaN")
    if math.isinf(x):
        raise ValueError("cannot serialize infinity; use an explicit flag field")
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats readable and unambiguous
        return f"{x:.1f}"
    return f"{x:.17g}"


def dumps(obj: Any, indent: int = 2) -> str:
    """Render obj (dict/list/str/int/float/bool/None, numpy scalars/arrays ok)."""
    out: list[str] = []
    _render(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _render(obj: Any, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out, indent, level)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k)!r}")
            out.append(pad_in)
            out.append(_escape(k))
            out.append(": ")
            _render(obj[k], out, indent, level + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        simple = all(
            isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            for v in obj
        )
        if simple:
            parts = [
                str(int(v))
                if isinstance(v, (int, np.integer))
                else format_float(float(v))
                for v in obj
            ]
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad_in)
            _render(v, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


def _escape(s: str) -> str:
    parts = ['"']
    for ch in s:
        if ch in _ESCAPES:
            parts.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            parts.append(f"\\u{ord(ch):04x}")
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)
