"""The platform journal's bytes, pinned.

One scripted sequence on ``ARCH_FSL`` writes every event kind:
configure, two library admissions, one spiral-fallback admission, and
a depart with ``migrate=True`` whose survivor moves.  Each
``platform-event`` file's sha256 is compared against a literal table,
so a change to how transitions are decided, encoded or ordered shows
up here byte for byte.
"""

import hashlib

from repro.artifacts import ArtifactStore
from repro.runtime import PlatformManager
from repro.runtime.journal import EVENT_KIND

from tests.runtime.conftest import ARCH_FSL, flow_specs

#: sha256 of each journal file the script writes, in sequence order.
PINNED = {
    "platform-00000000.json":  # configure
    "bf63bf1272beda2ed21649bfb745acb70580cb09a63cff8aa006a50e59bd7d25",
    "platform-00000001.json":  # admit, library
    "b2bcfefe2255cf4e36c10f065c5d5f6f821464b08b6729b387b98d083bbb184b",
    "platform-00000002.json":  # admit, library
    "d601c07371a572e3c9466240c875dafa6eadd003677b50ad53877c8302a9bc39",
    "platform-00000003.json":  # admit, spiral fallback
    "4a200dc83d06df5eb6c138024d13d4f4af2a1f9a5633c99561f4b08616a8d8c7",
    "platform-00000004.json":  # depart, migrate=True
    "b5182fa289657c230493a0af1d2a827b34a96cc945fe406e44cb4eb2b78c9556",
    "platform-00000005.json":  # migrate
    "d723cf6f4c32e86c1c8a4b0663e20b0799337fb4f3b5c12c557117e15e61c236",
}


def test_scripted_journal_bytes_are_pinned(fsl_builds, tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    manager = PlatformManager(ARCH_FSL, store=store)
    for _, build in fsl_builds:
        manager.register_library(build.key, build.library)
    first = manager.admit(fsl_builds[0][0])
    second = manager.admit(fsl_builds[1][0])
    # no library registered for this app: one spiral mapping
    fallback = manager.admit(flow_specs("chain", 1, 5, ARCH_FSL)[0])
    outcome = manager.depart(first["app_id"], migrate=True)

    assert [first["source"], second["source"], fallback["source"]] == [
        "library", "library", "spiral"
    ]
    assert [m["app_id"] for m in outcome["migrations"]] == [
        second["app_id"]
    ]
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(
            (tmp_path / "artifacts" / EVENT_KIND).glob("*.json")
        )
    }
    assert written == PINNED
    replayed = PlatformManager.open(store=store)
    assert replayed.state_digest() == manager.state_digest()
