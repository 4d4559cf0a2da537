#!/bin/sh
# bounded.sh CMD [ARG...]: runs CMD with at most 120 s of CPU time and
# 1 GB of address space, so that a runaway run fails (killed by SIGXCPU,
# or "out of memory") instead of running on.  The traced bank-w100 run
# of the weihl transcript takes about 5 s of CPU, 61 MB resident and
# between 300 and 400 MB of address space (the OCaml runtime's
# reservations).
ulimit -t 120 && ulimit -v 1048576 && exec "$@"
