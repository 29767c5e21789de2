from setuptools import Extension, setup

KERNEL = Extension(
    "wiresplit._kernel",
    ["src/wiresplit/_kernel.c"],
    # GCC defaults to -ffp-contract=fast for GNU C, which fuses
    # multiply-adds on FMA targets and breaks bitwise parity with
    # the pure-Python kernel.
    extra_compile_args=["-O3", "-ffp-contract=off"],
    optional=True,
)

if __name__ == "__main__":
    setup(ext_modules=[KERNEL])
