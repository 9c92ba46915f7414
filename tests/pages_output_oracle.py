"""`ess pages` output built the plain way, as the oracle for `cli.cmd_pages`.

`cli.cmd_pages` encodes each distinct page once and writes the document in
pieces.  Here every page goes through `PageTable.to_json` (or `to_text`) on
its own, the whole `--json` document through one `cli.emit_json`, and the
collapse page is found by testing every tail of the tables, as the command
did before it shared pages.
"""

from ess import cli


def collapse_page(tables):
    """First r such that every page from E^r on has no d^r and the entries
    of E^r, by testing every tail."""
    for i, tab in enumerate(tables):
        if all(not later.d_ranks and later.entries == tab.entries for later in tables[i:]):
            return tab.r
    return None


def pages_json(tables, homology_dims=None):
    """The `pages --json` stdout for these tables."""
    doc = {"pages": [t.to_json() for t in tables], "window_collapse_page": collapse_page(tables)}
    if homology_dims is not None:
        doc["homology_dims"] = homology_dims
    return cli.emit_json(doc)


def pages_text(tables, homology_dims=None):
    """The `pages` text stdout for these tables."""
    out = "".join(t.to_text() + "\n\n" for t in tables)
    out += f"window collapse at page: {collapse_page(tables)}\n"
    if homology_dims is not None:
        out += f"homology dims (independent rank computation): {homology_dims}\n"
    return out
