"""Deterministic fan-out over independent work items.

Results are collected in submission order, so the aggregate is bitwise
identical for any thread count; each item's computation must be pure.
"""


def deterministic_map(fn, items, threads=1):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # imported here: the thread pool costs `import randhyp` measurable time
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
