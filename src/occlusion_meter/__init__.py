"""Parts-based bicycle visibility and occlusion-level estimation.

Turns wheel / frame / handlebar detections into a continuous visibility
percentage and a categorical occlusion band, with a synthetic geometric oracle
to check the estimator. Import each name from the module that defines it:
importing the package loads none of them, so the CLI's ``classify``, ``batch``
and ``calibrate`` never load the oracle (``synthetic``, ``geometry``).
"""

__version__ = "0.1.0"
