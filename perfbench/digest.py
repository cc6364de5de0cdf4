"""Content digest of the campaign datasets a pass saved.

Run by ``run.py`` after the timed passes, as a child process::

    PYTHONPATH=src python perfbench/digest.py DATA_DIR [DATA_DIR ...]

Prints one SHA-256 per directory, one per line. The digest covers every
campaign's device count and table columns (name, dtype and bytes), read
through the program's public ``load_dataset``, not the file bytes. So an
npz dataset and a disk store that hold the same data digest equal.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from repro import load_dataset


def dataset_digest(root: Path) -> str:
    hasher = hashlib.sha256()
    for campaign in sorted(Path(root).glob("campaign*")):
        dataset = load_dataset(campaign)
        hasher.update(f"{campaign.name}:{dataset.n_devices}".encode())
        for table in dataset.table_names:
            for name, column in sorted(getattr(dataset, table)
                                       .columns.items()):
                hasher.update(f"{table}.{name}:{column.dtype.str}".encode())
                hasher.update(column.tobytes())
    return hasher.hexdigest()


if __name__ == "__main__":
    for path in sys.argv[1:]:
        print(dataset_digest(Path(path)))
