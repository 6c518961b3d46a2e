"""Mini-PTX substrate: IR, builder, validation, printing, interpretation.

This package models the device-code surface that Tally's kernel
transformations operate on.  See :mod:`repro.ptx.ir` for the instruction
set and :mod:`repro.ptx.interpreter` for the execution semantics.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".builder": ("KernelBuilder",),
    ".hash": ("canonical_form", "ir_hash"),
    ".interpreter": ("DeviceMemory", "GlobalRef", "Interpreter",
                     "LaunchResult", "SharedRef", "launch_kernel"),
    ".ir": ("Axis", "CompareOp", "Dim3", "Imm", "Instr", "KernelIR",
            "Opcode", "Param", "ParamKind", "ParamRef", "Reg", "SharedDecl",
            "SMemAddr", "Special", "SpecialKind"),
    ".library": ("KernelCase", "case_names", "make_case"),
    ".parser": ("parse_kernel", "parse_operand"),
    ".printer": ("format_instr", "format_kernel"),
    ".validate": ("validate_kernel",),
})
