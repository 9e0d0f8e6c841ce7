"""Microwave adiabatic passages on optically trapped atoms.

Simulation library for frequency-swept and transport-induced adiabatic
passages on a two-level atom: optical Bloch dynamics, magnetic-gradient
position addressing, thermal light-shift broadening of transfer spectra,
push-out detection, and least-squares spectrum fits.  The ``apsim`` command
line exposes the standard scans; see the README for an overview.  The
package namespace imports nothing: import the submodule that holds a name.
"""

__version__ = "0.1.0"
