"""Record the sha256 digest of every report of every workload at the
default seed into bench/digests.json.

    python3 bench/record_digests.py

Every call must pass the rest of the output gate first.  Reports must
stay byte-identical, so rerun this only when a change to the report
format is intended, and say so with the change.
"""

import json
import sys

import gate
import run
import workloads


def main():
    cli_main, _ = run.import_program()
    digests = {}
    with run.work_dir("record") as directory:
        for workload in workloads.WORKLOADS.values():
            runner = run.Runner(workload, cli_main, None)
            workloads.write_inputs(workload, run.DEFAULT_SEED, directory)
            for fname, command in workload.calls():
                _, text = runner.call(fname, command)
                key = run.digest_key(workload, fname, command)
                digests[key] = gate.digest(text)
            if runner.failed:
                sys.exit("not recorded: %s" % runner.errors[0])
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
