"""Host-cost benchmark of the FaaSMem simulator (see README.md)."""
