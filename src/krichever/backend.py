"""The kernel module that ``core`` and ``lattice`` call through."""

from . import _kernels_py as kernels

BACKEND = kernels.BACKEND_NAME
