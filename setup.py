"""Build script: compiles the optional C kernel.

Without a working C compiler the build still completes and the package runs
on its pure-Python fallback.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("qlab._kernel", ["src/qlab/_kernel.c"], optional=True)])
