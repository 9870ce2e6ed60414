"""Test session set-up: the suite writes no bytecode next to the sources it imports.

A tree that carries ``.pyc`` files starts its interpreters faster, so a
test run would otherwise change what a later benchmark of the same tree
measures.
"""

import sys

sys.dont_write_bytecode = True
