"""Layer-attributed benchmark of the ``repro`` CLI (see ``run.py``)."""
