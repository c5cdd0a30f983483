"""End-to-end assessment benchmark (see ``README.md`` in this directory)."""
