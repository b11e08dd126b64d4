"""Closed-form sphere laws that the flow tests compare trajectories with."""


def sphere_lifetime(radius, speed):
    """Collapse time of a sphere: r**(1+alpha) / ((1+alpha) f(1,...,1))."""
    return radius ** (1.0 + speed.alpha) / ((1.0 + speed.alpha) * speed.normalization)


def collapse_radius(estimate, time):
    """Radius of the comparison sphere collapsing at the estimated time."""
    remaining = estimate.time - time
    if remaining <= 0.0:
        raise ValueError(f"time {time} is not before the estimated collapse {estimate.time}")
    return float(((1.0 + estimate.alpha) * estimate.rate * remaining) ** (1.0 / (1.0 + estimate.alpha)))


def rescaled_profile(snapshot, estimate):
    """Support values about the collapse point, normalized by the comparison
    sphere; a flow converging to a round point flattens these toward 1."""
    body = snapshot.body
    shift = body.grid.nodes @ estimate.point
    return (body.values - shift) / collapse_radius(estimate, snapshot.time)
