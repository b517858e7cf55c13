"""Desk-scale feasibility simulator for satellite-to-ground links that
carry classical data and quantum key material on the same signal.

Submodules: mathfn (shared special functions and thermal occupancy),
atmosphere (gaseous attenuation), fso (optical downlink
transmissivity), dvqkd (decoy-state rates with a direct-message
payload), cvqkd (displaced coherent-state rates), config/sweeps/cli
(batch orchestration).  Import names from the submodules: the package
itself re-exports none, so importing it loads no submodule.

atmosphere is the only submodule that needs numpy, and only atmos-grid
imports it, so a rate scenario never loads numpy.
"""

__version__ = "0.1.0"
