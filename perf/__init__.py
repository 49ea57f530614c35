"""The performance ladder: the repo's benchmark (see ``perf/README.md``)."""
