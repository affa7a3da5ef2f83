"""Ray worker set-up hook for the traced run.

Installed through ``runtime_env={"worker_process_setup_hook": ...}``, it
wraps :meth:`DocumentExtractor.__call__` in every worker so each parse
batch appends its row count to a per-process file under
``$PERFBENCH_COUNT_DIR``. Summing those files after an ``extract`` run
gives the number of documents the parse actually processed, whatever
plan the CLI built.
"""

from __future__ import annotations

import os


def count_parsed_docs() -> None:
    from pdf_parser_ray.stages import parse

    path = os.path.join(os.environ["PERFBENCH_COUNT_DIR"], str(os.getpid()))
    orig = parse.DocumentExtractor.__call__

    def counted(self, batch):
        out = orig(self, batch)
        with open(path, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return out

    parse.DocumentExtractor.__call__ = counted


def parsed_docs(count_dir: str) -> int:
    total = 0
    for name in os.listdir(count_dir):
        with open(os.path.join(count_dir, name)) as f:
            total += sum(int(line) for line in f if line.strip())
    return total
