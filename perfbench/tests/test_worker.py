import os
import subprocess
import sys

import numpy as np

import worker

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_peak_rss_is_the_process_own_not_its_parents():
    held = np.ones(20_000_000)  # 160 MB, resident in this (parent) process
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import worker; "
             "print(worker.peak_rss_mb())")
    out = subprocess.run([sys.executable, "-c", probe, BENCH],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    assert float(out) < 100.0
    assert worker.peak_rss_mb() >= held.nbytes / 2**20
