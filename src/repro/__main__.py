"""``python -m repro`` → the ``peek`` command line (:mod:`repro.cli`)."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
