"""Wall-clock benchmark of mining and serving; see README.md."""
