"""Contributor-loop benchmark for the SQALPEL reproduction (see bench/README.md)."""
