"""Codegen-backend registry for fused sweep kernels.

The fusion pass (:mod:`repro.kernels.fused`) compiles an
:class:`~repro.memory.mmat.AccessPlan` plus an elementwise kernel ``fn``
into one generated function that gathers, applies and scatters without
materialising the intermediate ``(n_offsets, n_elem)`` tensor.  *How*
that function is produced is pluggable, mirroring the execution-backend
registry (:mod:`repro.runtime.backends`)::

    from repro.kernels import get_codegen, register_codegen

    codegen = get_codegen("numpy_src")

    class MyCodegen:
        name = "cython"
        def compile(self, signature): ...
    register_codegen(MyCodegen())

The built-in codegen, ``numpy_src``, emits NumPy source specialised to
the plan's shape and stencil and ``exec``-compiles it (no dependencies
beyond NumPy).

A codegen's ``compile(signature)`` returns a namespace (dict) holding
the generated functions ``fill_interior`` / ``fill_boundary`` /
``compute`` / ``store`` / ``fused_sweep``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = [
    "CodegenError",
    "DEFAULT_CODEGEN",
    "FusedKernel",
    "UNFUSABLE",
    "available_codegens",
    "fused_kernel_for",
    "get_codegen",
    "register_codegen",
    "resolve_codegen",
]


class CodegenError(RuntimeError):
    """A codegen backend is unavailable or cannot fuse the given plan."""


#: Codegen used when none is named: generated-and-``exec``'d NumPy source.
DEFAULT_CODEGEN = "numpy_src"

_REGISTRY: Dict[str, object] = {}


def register_codegen(codegen, *, replace: bool = False):
    """Register a codegen instance under its ``name``.

    Re-registering a name raises unless ``replace=True`` (shadowing a
    built-in is allowed that way, e.g. to instrument it in tests).
    """
    name = getattr(codegen, "name", None)
    if not name or not isinstance(name, str):
        raise CodegenError(f"codegen {codegen!r} has no usable 'name'")
    if not replace and name in available_codegens():
        raise CodegenError(f"codegen {name!r} is already registered")
    _REGISTRY[name] = codegen
    return codegen


def get_codegen(name: str):
    """Resolve a codegen by name (instantiating the built-in on first use)."""
    codegen = _REGISTRY.get(name)
    if codegen is None:
        if name != DEFAULT_CODEGEN:
            raise CodegenError(
                f"unknown kernel codegen {name!r} "
                f"(available: {', '.join(available_codegens())})"
            )
        from .numpy_src import NumpySourceCodegen

        codegen = _REGISTRY[name] = NumpySourceCodegen()
    return codegen


def available_codegens() -> List[str]:
    """Sorted names of every registered codegen and the built-in one."""
    return sorted({DEFAULT_CODEGEN, *_REGISTRY})


def resolve_codegen(name: Optional[str] = None):
    """The codegen called ``name``; the default when ``name`` is None or
    not registered — fusion degrades, it never breaks a run."""
    try:
        return get_codegen(name or DEFAULT_CODEGEN)
    except CodegenError:
        return get_codegen(DEFAULT_CODEGEN)


from .fused import FusedKernel, UNFUSABLE, fused_kernel_for  # noqa: E402
