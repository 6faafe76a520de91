"""Reference for the exact escape of replica ensembles, made the long way.

`montecarlo._escape_visits` keeps a refilled pool of walkers and reads
each 8-step round from byte tables.  This reference walks all replicas
of a list together until the last has escaped, and reads each round
with a cumulative sum, a running minimum for the reflection at lo and a
running maximum for the exit over the (replicas, 8) steps, in the same
rounds of the same streams.  Each round draws the word after its 8
steps too, so the decision after an exit in the round reads a word
already drawn and counts no new word.
"""

import numpy as np

from walklab.rng import counter_steps

ROUND = 8


def reference_escape(params, seed, replica_ids, start, first_step, lo, hi):
    """Every visit at steps >= first_step to the sites lo..hi of the
    replicas `replica_ids`, each walked from `start` until it escapes for
    good, reflected at lo: x_t = max(x_(t-1) + s_t, lo).  A start below
    lo is on lo after one step whatever its word, so that word is not
    drawn.  Returns the row (index into `replica_ids`) and site of every
    visit, the RNG words drawn and the steps walked, decision and
    admission steps included."""
    p, h = params.p, params.h
    ids = np.asarray(replica_ids, dtype=np.uint64)
    rows = np.arange(len(ids))
    pos = np.full(len(ids), start, dtype=np.int64)
    step = np.full(len(ids), first_step, dtype=np.int64)
    hit_rows, hit_sites = [rows[:0]], [pos[:0]]
    if start < lo:
        pos[:], step[:] = lo, first_step + 1
        hit_rows.append(rows)
        hit_sites.append(pos.copy())
    gap = start - hi  # how far above hi the replicas waiting to decide stand
    drawn = np.zeros(len(ids), dtype=bool)  # the decision word was in the last round
    words = steps = 0
    while len(rows):
        above = pos > hi
        if above.any():
            back = counter_steps(h**gap, seed, ids[above], 1, step[above])[:, 0] > 0
            words += int((~drawn[above]).sum())
            hit_rows.append(rows[above][back])
            hit_sites.append(np.full(int(back.sum()), hi, dtype=np.int64))
            keep = ~above
            keep[above] = back
            pos[above] = hi
            step[above] += 1
            steps += int((step[~keep] - first_step).sum())
            ids, rows, pos, step = ids[keep], rows[keep], pos[keep], step[keep]
            drawn = drawn[keep]
            if not len(rows):
                break
        gap = 1
        draws = counter_steps(p, seed, ids, ROUND, step)
        words += len(ids) * (ROUND + 1)  # a round draws the word after its steps too
        path = pos[:, None] + np.cumsum(draws, axis=1, dtype=np.int64)
        path += np.maximum(lo - np.minimum.accumulate(path, axis=1), 0)
        live = np.maximum.accumulate(path, axis=1) <= hi  # a prefix of each row
        r, c = np.nonzero(live)
        hit_rows.append(rows[r])
        hit_sites.append(path[r, c])
        used = live.sum(axis=1)
        out = used < ROUND
        drawn = out
        step += used + out
        pos = np.where(out, hi + 1, path[:, -1])
    return np.concatenate(hit_rows), np.concatenate(hit_sites), words, steps
