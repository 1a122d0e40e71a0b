"""Job lists of the three benchmark workloads.

A job is the argument list of one `mckay-moduli` command.  Each workload is
a fixed list of anchor jobs plus jobs drawn from the workload seed; the same
(workload, seed) always gives the same list, and the program only ever sees
the generated arguments.
"""

from __future__ import annotations

import random

from gate import two_cones

GOLDEN_GROUP = "1/11(1,2,8)"
GOLDEN_THETA = "1,1,1,1,-7,-9,1,1,1,8,1"
W_A = "10,7,6"
W_B = "8,3,1"
G13 = "1/13(1,3,9)"

# Fans the rep-face draws are taken from, frozen here so that the job list
# does not depend on the program under test: (rays, maximal cones) of the
# golden theta on 1/11(1,2,8) and of G-Hilb on 1/13(1,3,9).
GOLDEN_FAN = (
    ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 2, 8), (2, 4, 5), (3, 6, 2), (6, 1, 4), (7, 3, 1)),
    ((1, 2, 7), (2, 4, 7), (2, 4, 6), (0, 2, 6), (1, 5, 7), (4, 5, 7), (3, 4, 6),
     (0, 3, 6), (1, 4, 5), (1, 3, 4), (0, 1, 3)),
)
G13_FAN = (
    ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 3, 9), (2, 6, 5), (3, 9, 1), (5, 2, 6),
     (6, 5, 2), (9, 1, 3)),
    ((1, 2, 5), (2, 5, 7), (2, 7, 8), (0, 2, 8), (6, 7, 8), (0, 6, 8), (4, 6, 7),
     (4, 5, 7), (3, 4, 6), (0, 3, 6), (1, 4, 5), (1, 3, 4), (0, 1, 3)),
)

SUITE_GROUPS = ("1/2(1)", "1/7(1,2)", "1/3(1,1,1)", "1/5(1,3)", "2x2:1,0;0,1")


def _csv(values):
    return ",".join(str(x) for x in values)


def ghilb_fan(group):
    return ("fan", "--group", group, "--ghilb")


def theta_fan(group, theta):
    return ("fan", "--group", group, "--theta", theta)


def rep(group, theta, w):
    head = ("rep", "--group", group)
    return head + (("--ghilb",) if theta is None else ("--theta", theta)) + ("-w", w)


def generic_theta(rng, r):
    """A generic parameter theta = 1 (mod r) with entries in {1 - r, 1, 1 + r} off vertex 0.

    Every proper subset of k characters then has theta-sum k (mod r), never
    zero, so the moduli space is smooth and its fan meets the McKay
    invariants.  The sign pattern, and with it the GIT chamber, varies.
    """
    rest = [1 + r * rng.choice((-1, 0, 1)) for _ in range(r - 1)]
    return _csv([-sum(rest)] + rest)


def wall_w(rng, fan, need_coordinate_ray=False):
    """w = sum of the two rays of a random two-dimensional cone of the fan.

    Such w lie on a wall between maximal cones, where the optimal face of the
    potential program is larger than at a generic w.
    """
    rays, cones = fan
    faces = two_cones(rays, cones)
    if need_coordinate_ray:
        faces = [(i, j) for i, j in faces if sum(rays[i]) == 1 or sum(rays[j]) == 1]
    i, j = rng.choice(faces)
    return _csv(a + b for a, b in zip(rays[i], rays[j]))


def _draw_distinct(rng, count, draw, taken):
    out = []
    while len(out) < count:
        job = draw(rng)
        if job not in taken:
            taken.add(job)
            out.append(job)
    return out


def fan_oracle(rng):
    anchors = [
        ghilb_fan("1/7(1,2,4)"),
        ghilb_fan(G13),
        ghilb_fan("1/17(1,3,13)"),
        ghilb_fan("1/19(1,7,11)"),
        theta_fan(GOLDEN_GROUP, GOLDEN_THETA),
    ]
    taken = set(anchors)
    seeded = []
    for group, r in ((GOLDEN_GROUP, 11), (G13, 13)):
        seeded += _draw_distinct(
            rng, 1, lambda g, group=group, r=r: theta_fan(group, generic_theta(g, r)), taken
        )
    return anchors, seeded


def rep_face(rng):
    anchor_face = [
        rep(GOLDEN_GROUP, GOLDEN_THETA, W_A),
        rep(GOLDEN_GROUP, GOLDEN_THETA, W_B),
        rep(G13, None, "13,7,1"),
    ]
    taken = set(anchor_face)
    seeded = _draw_distinct(
        rng,
        1,
        lambda g: rep(GOLDEN_GROUP, GOLDEN_THETA, _csv(g.randint(1, 15) for _ in range(3))),
        taken,
    )
    # Generic w on G13 take 1 to 45 s in face mode and the walls between two
    # junior rays up to 4 s, above the (13,7,1) anchor that tops this ladder;
    # the seeded G13 draws stay on walls through a coordinate ray.
    seeded += _draw_distinct(
        rng, 1, lambda g: rep(G13, None, wall_w(g, G13_FAN, need_coordinate_ray=True)), taken
    )
    anchors = anchor_face + [anchor_face[2] + ("--single-optimizer",)]
    seeded.append(seeded[0] + ("--single-optimizer",))
    return anchors, seeded


def exact_enum(rng):
    anchors = [ghilb_fan(g) + ("--lifted",) for g in ("1/7(1,2,4)", "1/8(1,2,5)", "1/9(1,2,6)")]
    anchors += [
        ghilb_fan("1/7(1,2,4)") + ("--charts", "14"),
        theta_fan("1/3(1,1,1)", "-2,1,1") + ("--charts", "10"),
    ]
    anchors += [("check", "--group", g) for g in SUITE_GROUPS]
    taken = set(anchors)
    seeded = _draw_distinct(
        rng, 2, lambda g: theta_fan("1/7(1,2,4)", generic_theta(g, 7)) + ("--lifted",), taken
    )
    return anchors, seeded


WORKLOADS = {
    "fan-oracle": fan_oracle,
    "rep-face": rep_face,
    "exact-enum": exact_enum,
}


def job_list(workload, seed):
    """Anchor jobs followed by the jobs drawn from the seed, as argv tuples."""
    rng = random.Random(f"{workload}:{seed}")
    anchors, seeded = WORKLOADS[workload](rng)
    return [tuple(j) for j in anchors] + [tuple(j) for j in seeded]


def anchor_count(workload):
    anchors, _ = WORKLOADS[workload](random.Random(0))
    return len(anchors)
