"""Reference implementations kept as differential-test oracles."""
