"""Build script: compiles the optional Cython ``mul_terms`` kernel.

The package is fully functional without the extension (the pure-Python
``mul_terms`` is selected at import time), so any build failure here, or a
missing Cython, only costs speed.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, etc.
            print(f"warning: skipping compiled kernels ({exc}); "
                  "pure-Python fallback will be used")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: failed to build {ext.name} ({exc}); "
                  "pure-Python fallback will be used")


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        return []
    return cythonize(
        [Extension("symkron._kernels._speedups",
                   ["src/symkron/_kernels/_speedups.pyx"])],
        language_level=3,
    )


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})
