"""End-to-end benchmark of the LLMulator reproduction (see README.md)."""
