"""Reference for the exact escape of replica ensembles, made the long way.

`montecarlo._escape_visits` keeps a refilled pool of walkers and reads
each round from tables.  This reference walks all replicas of a list
together until the last has escaped, in the same rounds of the same
streams, one lane at a time: each round draws 9 words, its 8 step lanes
and the word after them.  A walker that steps to hi + 1 at lane j is
decided by lane j + 1, and after a return to hi it walks on with lane
j + 2 of the same round, so a round ends after its last step lane or at
an escape, and every round counts 9 words whatever it used of them.
"""

import numpy as np

from walklab.rng import counter_steps

ROUND = 8


def reference_escape(params, seed, replica_ids, start, first_step, lo, hi):
    """Every visit at steps >= first_step to the sites lo..hi of the
    replicas `replica_ids`, each walked from `start` until it escapes for
    good, reflected at lo: x_t = max(x_(t-1) + s_t, lo).  A start below
    lo is on lo after one step whatever its word, so that word is not
    drawn; a start above hi is decided by its first word, with h^(start -
    hi).  Returns the row (index into `replica_ids`) and site of every
    visit, the RNG words drawn and the steps walked, decision and
    admission steps included."""
    p, h = params.p, params.h
    ids = np.asarray(replica_ids, dtype=np.uint64)
    rows = np.arange(len(ids))
    pos = np.full(len(ids), start, dtype=np.int64)
    step = np.full(len(ids), first_step, dtype=np.int64)
    hit_rows, hit_sites = [rows[:0]], [pos[:0]]
    words = steps = 0
    if start < lo:
        pos[:], step[:] = lo, first_step + 1
        hit_rows.append(rows)
        hit_sites.append(pos.copy())
    elif start > hi:
        back = counter_steps(h ** (start - hi), seed, ids, 1, step)[:, 0] > 0
        words += len(ids)
        pos[:], step[:] = hi, first_step + 1
        steps += int((~back).sum())
        ids, rows, pos, step = ids[back], rows[back], pos[back], step[back]
        hit_rows.append(rows)
        hit_sites.append(pos.copy())
    while len(rows):
        ups = counter_steps(p, seed, ids, ROUND + 1, step) > 0
        backs = counter_steps(h, seed, ids, ROUND + 1, step) > 0
        words += len(ids) * (ROUND + 1)
        used = np.full(len(ids), ROUND)
        gone = np.zeros(len(ids), dtype=bool)
        for j in range(ROUND + 1):
            deciding = ~gone & (pos > hi)  # stepped to hi + 1 at lane j - 1
            stepping = ~gone & (pos <= hi) & (j < ROUND)
            returned = deciding & backs[:, j]
            gone |= deciding & ~returned
            used[deciding] = j + 1
            pos[returned] = hi
            pos[stepping] = np.maximum(pos[stepping] + np.where(ups[stepping, j], 1, -1), lo)
            seen = returned | stepping & (pos <= hi)
            hit_rows.append(rows[seen])
            hit_sites.append(pos[seen])
        used[~gone & (used < ROUND)] = ROUND  # a return before lane 7: the round goes on
        step += used
        steps += int((step[gone] - first_step).sum())
        ids, rows, pos, step = ids[~gone], rows[~gone], pos[~gone], step[~gone]
    return np.concatenate(hit_rows), np.concatenate(hit_sites), words, steps
