"""Byte-size and time helpers.

The paper quotes sizes as 4KB..32MB memory blocks and volumes such as
384x384x384 floats; experiment tables label sizes and times the same way.
"""

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def format_size(nbytes):
    """Render a byte count the way the paper labels its axes (4KB, 32MB)."""
    if nbytes < 0:
        raise ValueError(f"negative size: {nbytes}")
    for factor, suffix in ((GB, "GB"), (MB, "MB"), (KB, "KB")):
        if nbytes >= factor and nbytes % factor == 0:
            return f"{nbytes // factor}{suffix}"
        if nbytes >= factor:
            return f"{nbytes / factor:.1f}{suffix}"
    return f"{nbytes}B"


def format_time(seconds):
    """Render a virtual-time duration with a sensible unit."""
    if seconds < 0:
        raise ValueError(f"negative time: {seconds}")
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.3f}us"
    return f"{seconds * 1e9:.1f}ns"
