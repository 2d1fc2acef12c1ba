// cli.startup_ms: what `uc run` costs before any program work.
main() { }
