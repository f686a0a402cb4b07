"""One cold start: import gibbsrot and finish the first call of every op a
workload uses, then exit.  ``run.py`` times this script from launch to exit.

Usage: python3 coldstart.py SRC_DIR WORKLOAD [SWEEP_PROFILE]
"""

import sys

sys.path.insert(0, sys.argv[1])

import gibbsrot  # noqa: E402

if sys.argv[2] == "sweep-obj":
    import contextlib
    import io

    import gibbsrot.cli

    sys.stdin = io.StringIO("0,0,0\n1,0.5,0\n2,1.5,0.25\n")
    with contextlib.redirect_stdout(io.StringIO()):
        code = gibbsrot.cli.main(["sweep", "--obj", "--profile", sys.argv[3]])
    sys.exit(code)

u = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
p1, p2 = [1.0, 2.0, 3.0], [-2.0, 0.5, 1.0]
r = gibbsrot.compose(gibbsrot.matrix_to_gibbs(u), [0.1, -0.2, 0.3])
q1, q2 = gibbsrot.rotate_vector(r, p1), gibbsrot.rotate_vector(r, p2)
gibbsrot.gibbs_to_matrix(gibbsrot.align_pair(p1, q1, p2, q2))
