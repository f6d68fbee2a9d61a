"""Frozen reference implementations the equality tests compare against.

Each is the slow, plain formulation of something ``src/repro`` computes
another way; no production code imports them, and ``tests/test_surface.py``
checks that a test uses each public definition here.
"""
