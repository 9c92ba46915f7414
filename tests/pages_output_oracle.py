"""`ess pages` output built the plain way, as the oracle for `cli.cmd_pages`.

`cli.cmd_pages` encodes each distinct page once, writes its entries as text
and writes the document in pieces.  Here every page goes through
`page_json` (or `page_text`) on its own, the whole `--json` document
through one `cli.emit_json`, and the collapse page is found by testing every
tail of the tables, as the command did before it shared pages.
"""

from ess import cli

TITLE = "page E^{}  (rows q, columns filtration s; dim/d-rank)"


def page_json(t):
    """One page as a plain dict: its number and one dict per spot (s, q) of
    the window, q outer and s inner."""
    S, Q = t.window
    return {"page": t.r, "entries": [
        {"s": s, "q": q, "dim": t.dim(s, q), "d_rank": t.d_ranks.get((s, q), 0)}
        for q in range(Q + 1) for s in range(S + 1)]}


def page_text(t):
    """One page as its titled table: rows q from the top down, a cell
    dim/rank where d^r leaves the spot and dim alone where it does not."""
    S, Q = t.window
    lines = [TITLE.format(t.r)]
    header = "q\\s " + " ".join(f"{s:>7}" for s in range(S + 1))
    lines.append(header)
    for q in range(Q, -1, -1):
        cells = []
        for s in range(S + 1):
            d = t.dim(s, q)
            rk = t.d_ranks.get((s, q), 0)
            cells.append(f"{d}/{rk}" if rk else f"{d}  ")
        lines.append(f"{q:>3} " + " ".join(f"{c:>7}" for c in cells))
    return "\n".join(lines)


def collapse_page(tables):
    """First r such that every page from E^r on has no d^r and the entries
    of E^r, by testing every tail."""
    for i, tab in enumerate(tables):
        if all(not later.d_ranks and later.entries == tab.entries for later in tables[i:]):
            return tab.r
    return None


def pages_json(tables, homology_dims=None):
    """The `pages --json` stdout for these tables."""
    doc = {"pages": [page_json(t) for t in tables], "window_collapse_page": collapse_page(tables)}
    if homology_dims is not None:
        doc["homology_dims"] = homology_dims
    return cli.emit_json(doc)


def pages_text(tables, homology_dims=None):
    """The `pages` text stdout for these tables."""
    out = "".join(page_text(t) + "\n\n" for t in tables)
    out += f"window collapse at page: {collapse_page(tables)}\n"
    if homology_dims is not None:
        out += f"homology dims (independent rank computation): {homology_dims}\n"
    return out
