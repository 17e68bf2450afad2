"""Datalog over shared arrangements (§6.3.1, Fig. 8/17).

``engine``  — positive binary-relation Datalog with semi-naive bottom-up
              evaluation over static arrangements, seeded (magic-set)
              entry points.
``queries`` — tc / sg programs, their magic-set-style seeded variants, and
              the full-evaluation (no shared arrangements) baseline.
"""
