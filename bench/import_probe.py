"""Times a fresh `import ccdrobust` and the first k=3 sphere_points call,
which loads scipy.stats lazily.  Imports nothing else first."""

import time

t0 = time.perf_counter()
import ccdrobust  # noqa: E402
t1 = time.perf_counter()
from ccdrobust.criteria import sphere_points  # noqa: E402
t2 = time.perf_counter()
sphere_points(3, 1.0, 200)
t3 = time.perf_counter()

import json  # noqa: E402
print(json.dumps({"import_s": t1 - t0, "first_sphere_points_ms": (t3 - t2) * 1e3}))
