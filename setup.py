"""Build script: compiles the optional C kernel.

Without a working C compiler the build still completes and the package runs
on its pure-Python fallback.  Set QLAB_NO_EXTENSION=1 to skip the extension
entirely.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if not os.environ.get("QLAB_NO_EXTENSION"):
    ext_modules = [Extension("qlab._kernel", ["src/qlab/_kernel.c"], optional=True)]

setup(ext_modules=ext_modules)
