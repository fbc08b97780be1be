"""End-to-end benchmark of the RICA simulator (see README.md)."""
