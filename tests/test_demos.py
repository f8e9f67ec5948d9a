"""The walkthroughs in demos/ run and print exactly their pinned output."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout
DEMO_STDOUT = {
    "closed_form_families": "aa5476fa8860af1582fc55e1c03adb505bc3c0db443d967c938629b4da324493",
    "diagram_calculus": "f32da309cb2e2cf588925032a871d32180c901e9bccc615a485d95a6c5117be8",
    "ordering_kpaths": "7ea8a0ea5ac262567df804f11cac775101c2112c800a970f047025f164c1c7c8",
    "rims_and_reduced_forms": "5608aa7f6c0a002210b04bd8e60b07cf03af4d6b85f0e3514c1fd76d573d94b3",
}


def test_demos_run_and_print_their_pinned_output():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), PYTHONIOENCODING="utf-8")
    for demo, digest in DEMO_STDOUT.items():
        run = subprocess.run(
            [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert run.returncode == 0, (demo, run.stderr.decode())
        assert hashlib.sha256(run.stdout).hexdigest() == digest, demo
