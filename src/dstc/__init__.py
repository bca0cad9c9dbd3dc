"""DNS-advertised strict TLS configuration policies.

Domain owners publish a signed policy record in DNS; clients verify it,
cache it, and enforce a strict TLS configuration (latest version, forward
secrecy plus authenticated encryption, no fallback) for advertising domains,
falling back to permissive defaults everywhere else.
"""
