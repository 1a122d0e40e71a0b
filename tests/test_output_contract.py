"""Documents of the benchmark's anchor jobs stay byte-identical.

The outputs are the contract: each job below runs in process and the sha256
of its standard output must equal the digest recorded when the document
format was last settled.  A change that alters any of these documents has
to say why and update the digest here.
"""

import hashlib

import pytest

from golden import GENERIC_13
from mckay_moduli.cli import main

GOLDEN_REP = ("rep", "--group", "1/11(1,2,8)", "--theta", "1,1,1,1,-7,-9,1,1,1,8,1")
G13_REP = ("rep", "--group", "1/13(1,3,9)", "--ghilb", "-w", "13,7,1")
CHECK_PASSED = "1615d78bac13ce80c2958bd4ef59b326ad5e1be5b366f8c6f8495cd895cc8a05"

ANCHORS = [
    (
        ("fan", "--group", "1/7(1,2,4)", "--ghilb"),
        "c625979f4f6afbbd91ecb19657c6e851aae1cd68f866a171464de0d6c7b22111",
    ),
    (
        ("fan", "--group", "1/13(1,3,9)", "--ghilb"),
        "f35695a20ba4d0174164ae2b1858ce5e23086cf682b723dad40a3136570cec41",
    ),
    (
        ("fan", "--group", "1/7(1,2,4)", "--ghilb", "--lifted"),
        "c625979f4f6afbbd91ecb19657c6e851aae1cd68f866a171464de0d6c7b22111",
    ),
    (
        ("fan", "--group", "1/7(1,2,4)", "--ghilb", "--charts", "14"),
        "341d562710fcc1d1be8c7670c863e50c0ad5f5387465f62f46ca285b3331d489",
    ),
    (
        GOLDEN_REP + ("-w", "10,7,6"),
        "694d43f3f2611dcfc0a04812b30e28b6289d5d83aedad960bcab6e0d40d9557f",
    ),
    (G13_REP, "6841d31e7f3d3e92589eee6f4bc18e01f4ea6ed37f6960bb19de4b3fee22720b"),
    (
        G13_REP + ("--single-optimizer",),
        "57883b61d0f9a9b09a3a675ecc043bc44e17c6b95df6ff2a503a7cb97bd9790a",
    ),
    (
        ("fan", "--group", "1/61(1,11,49)", "--ghilb"),
        "135f81115ebba68b275c8c3935100962d3cda5cfae3cad66cc90668636fa4604",
    ),
    (
        ("fan",) + GOLDEN_REP[1:],
        "6d4f89ee62e992620ed4b06a576cd0fb3c0dfc82ca438f21c3838bd234c52f9f",
    ),
    (
        ("fan", "--group", "1/13(1,3,9)", "--theta", GENERIC_13),
        "cd1c8831d7efed73d553e280eac9343eb6ac46fee19f50745045664cd44ba657",
    ),
    (
        ("fan", "--group", "1/7(1,2,4)", "--ghilb", "--charts", "6", "--format", "text"),
        "053cac27586ff8f82a7fae8f8d2bbd9fd1af6628e31a1462175478cdbd375b97",
    ),
    (
        G13_REP + ("--format", "text"),
        "cb0053ea83fc7f1b8be214234dc8e898c2baa6ec21dc8b1fc9dfc456cef641c9",
    ),
    (
        ("quiver", "--group", "1/7(1,2)"),
        "9123ff506124fdf65c62572b77e593718e3293385ab93ca31ec336b8e030a2c7",
    ),
    (
        ("quiver", "--group", "1/7(1,2)", "--format", "text"),
        "dd0b92f7dc75b164adbd05d5eadb8f502874aa6a7ad78116ebf229e93a2e82a8",
    ),
    (
        ("quiver", "--group", "2x2:1,0;0,1"),
        "dabbcb5daaf19f55d8bae1efeb124238d4a1e3a3a3194cda097effaf82329316",
    ),
    (("check", "--group", "2x2:1,0;0,1"), CHECK_PASSED),
    (("check", "--group", "1/5(1,3)"), CHECK_PASSED),
    # Degenerate inputs: theta = 0, n = 1, and a non-cyclic group on the lifted path.
    (
        ("fan", "--group", "1/3(1,1,1)", "--theta", "0,0,0", "--lifted", "--charts", "4"),
        "5a249d5c96b489fcf0ed13693035bb30d91a502da89ec61f89efdb71d53f9639",
    ),
    (
        ("fan", "--group", "1/2(1)", "--ghilb", "--lifted"),
        "d5f8adde341f5718db2e2f8d5256d833816acd8beed450b0cabd2a4ebb6d2f4b",
    ),
    (
        ("rep", "--group", "1/3(1,1,1)", "--theta", "0,0,0", "-w", "0,0,0"),
        "946de9445bc7fea3c1bbe8b75ebce7e07a8ce976cee09f2160f063902cdcbbff",
    ),
    (
        ("fan", "--group", "2x2:1,0,1;0,1,1", "--ghilb", "--lifted"),
        "92b0fae0c49f7072578c54f8c1de7a9bfa9421fc6ab3d7c6269208c836e83bcc",
    ),
    # The chart at vertex (0, 3, 14, 1) reports (0, 2, 0, -2) missing, yet it is
    # saturated: (0, 2, 0, -2) = (0, 0, 3, -1) + (0, 2, -3, -1), and the bound-5
    # search cannot see the second summand, whose |q|_1 is 6.
    (
        ("fan", "--group", "1/8(1,3,5,7)", "--theta", "-4,-1,-4,2,-5,0,3,9", "--charts", "5"),
        "da198be1372201f76b8c0f3e43bd2ffe220c753474811aa9e40db4b910d7a5f6",
    ),
    # The text views of the degenerate and chart anchors, a non-cyclic quiver
    # and a rational w.
    (
        ("fan", "--group", "1/3(1,1,1)", "--theta", "0,0,0", "--lifted", "--charts", "4",
         "--format", "text"),
        "16e407ec046c3ce0d34a8b77698f6db17046ed49d3b0082c7d10c86e59cf6bc5",
    ),
    (
        ("rep", "--group", "1/3(1,1,1)", "--theta", "0,0,0", "-w", "0,0,0", "--format", "text"),
        "90c4da8567680b1793b15c56c809817238fa7c4fa659bc54d4eb209d4927af6e",
    ),
    (
        ("fan", "--group", "1/8(1,3,5,7)", "--theta", "-4,-1,-4,2,-5,0,3,9", "--charts", "5",
         "--format", "text"),
        "926405e9839d60445dcf54df23677c0ed0112c576fe888595641c0c460985525",
    ),
    (
        ("quiver", "--group", "2x2:1,0;0,1", "--format", "text"),
        "cbe1f1727838355774a633f7de4b746f99195998a2389410da3ce45edc75b4b3",
    ),
    (
        GOLDEN_REP + ("-w", "1/2,1/3,1", "--format", "text"),
        "e62ddc840a40aee39a60ab18f9f088e831b467d1e6aa86923727be606fdab002",
    ),
]


@pytest.mark.parametrize("argv,digest", ANCHORS, ids=[" ".join(a) for a, _ in ANCHORS])
def test_anchor_document_digest(capsys, argv, digest):
    rc = main(list(argv))
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fan_svg_digest(capsys, tmp_path):
    target = tmp_path / "fan.svg"
    rc = main(["fan", "--group", "1/13(1,3,9)", "--ghilb", "--svg", str(target)])
    capsys.readouterr()
    assert rc == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "75ceaeca812f6fb560221f3e873f42f93ac1dc25267f57c38f0cee8331e7e79f"
