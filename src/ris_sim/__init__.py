"""Link-level simulator for reflective-surface assisted MIMO radio.

Modules cover the linear-algebra kernel, channel synthesis, surface phase
control, multi-user scheduling, coexistence experiments, coverage
planning, and a reproducible command line front end.  Importing the
package loads none of them; each loads on its own import, so a run loads
only the modules its experiment uses.
"""

__version__ = "0.1.0"
