"""Pragma fixtures: ``allow(CODE)`` naming a code no registered rule owns."""

import time


def retired(counter):
    return counter + 1  # srplint: allow(SRP001) BAD: a retired rule's leftover pragma


def unknown():
    return 2  # srplint: allow(SRP999) BAD: no rule has ever owned this code


def registered():
    return time.time()  # srplint: allow(SRP003) fixture clock, suppressed as usual
