"""Darboux-Halphen flows in their five guises: theta closed forms with exact
q-series verification, the Eisenstein/Ramanujan conjugacy, Bianchi IX
self-duality, the elliptic-family connection contraction and the
Chazy/WDVV link."""

__version__ = "0.1.0"
