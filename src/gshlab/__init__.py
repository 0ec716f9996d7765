"""Numerical laboratory for the class of normalized analytic functions whose
log-derivative deviation z f'/f - 1 is subordinate to sinh z.

The package builds members from Schwarz-map witnesses, tests membership
three independent ways, scans the sharp coefficient bounds empirically, and
verifies the differential-subordination implications and their thresholds.
Names are imported from their modules, for example
``from gshlab.core import member_from_witness``.
"""
