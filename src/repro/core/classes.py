"""Application class binning (Fig. 3.1 / Table 6.1).

The paper groups its applications by footprint (relative to the last-level
cache) and by the visibility the last-level cache has of upper-level
activity, and reports class-averaged results.  The binning below matches
the paper's Table 6.1; :func:`class_of` is derived from the workload specs
so the binning and the synthetic generators can never drift apart.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.workloads.suite import application_class, application_specs

#: Class id -> tuple of application names, exactly as in Table 6.1.
APPLICATION_CLASSES: Dict[int, Tuple[str, ...]] = {
    1: ("fft", "fmm", "cholesky", "fluidanimate"),
    2: ("barnes", "lu", "radix", "radiosity"),
    3: ("blackscholes", "streamcluster", "raytrace"),
}


def class_of(application: str) -> int:
    """The class (1, 2 or 3) of an application name."""
    return application_class(application)


def class_members(app_class: int) -> Tuple[str, ...]:
    """The applications binned into ``app_class``."""
    if app_class not in APPLICATION_CLASSES:
        raise KeyError(f"unknown application class {app_class}")
    return APPLICATION_CLASSES[app_class]


def classes_consistent_with_specs() -> bool:
    """Check the static table against the per-spec class annotations."""
    for app_class, names in APPLICATION_CLASSES.items():
        for name in names:
            if application_specs()[name].app_class != app_class:
                return False
    expected = {name for names in APPLICATION_CLASSES.values() for name in names}
    return expected == set(application_specs().keys())

