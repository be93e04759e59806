"""Reference oracles the production code is differentially tested against."""
