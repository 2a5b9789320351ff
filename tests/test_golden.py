"""Golden outputs: sha256 of the CLI's exact bytes at degree 10.

Any change to the conversions, the expansions or the verifier that alters
a single output byte shows up here.  ``millis`` is dropped from the verify
reports, since it is a wall time.  The file imports only the package, so it
also runs against an installed copy: ``python -m pytest -q tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json

import pytest

from symkron.cli import main
from symkron.named import TAGS
from symkron.series import BASES


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue()


EXPAND_DEGREE_10 = {
    "H/m": "4db8a04f3a306820a305314b69fbd45deb69e9042b8fd424374e1f505c2952f9",
    "H/e": "dc54a3d3c54fdfc5a27c9ecc1d3528a8b2a37e5a5503c199743f22d411bcbbd5",
    "H/h": "012951681f5b7b3cc09cca942aecc24c335774b0f8b10398cf61fac448588064",
    "H/p": "5823effb9bb21b8f3f337e3888ff49721f08b397da51b452734ac560053a72c5",
    "H/s": "25330c0a87eb0b12823d291bd6844aa5459964dbdc20352d553019eaec92ce85",
    "E/m": "284907f8da97b985445a1c4b55e7e9c910ca81f7064f8ba89a7de158cce1bcab",
    "E/e": "f21e7b4988186070ac17194cbb35015ae37c949152ba39c24f0cca1be8a93115",
    "E/h": "17fe4e271dc939350aa48e7b06e354f59bc70e033d1fa30dc96d56d4498c7f67",
    "E/p": "b63ba54a856f97447dd021a3a00a621184bfe19227efe0d9aa1b5e11823174b6",
    "E/s": "ee12f3e839886a3a4411883394527bfe9b49624ba9e21d10195c556f7ac13026",
    "S/m": "2ffab629c1bdc69183032c2fd1537a063677d8de44e49704e50670444d54b0d4",
    "S/e": "f9ebdfc5ef46ce708b02ec656bf08aa00f73d778a566939e7bc305a79ebfbba6",
    "S/h": "7e285fc4bf4c04731049ef8aabbf61341bb3ef586936843831c61cbb1cc79767",
    "S/p": "9d3789d611646a4ff856ec964ca657d1c37002883ce1ce0e07fdb171f4a37320",
    "S/s": "57464eb960c6b80ca1bc4f92610cdc8fa887e398fa0bc793a63d533089406239",
    "SHinv/m": "025c4b36de44c959669bacd603b484392656915284083778e680bff286788cd0",
    "SHinv/e": "3e19544adae6cdad1f77e79a123eed930a38a96ce5ab8fa2b9d334eda8ca6552",
    "SHinv/h": "61d33bc55099f350b272b62f0bb911592849544bc3809c0dc89b8976dfe02b47",
    "SHinv/p": "eda1591de92b80324165c94e3be949ebd6f9f3b69a7bcdd67f85a57a29128e46",
    "SHinv/s": "84c349bf5a13019b2dbcdd6923ed9c7a54ce0d11428238fa6c465c6701283c48",
    "SEinv/m": "0c7ab0836d96591c773c0f9c9af4396ae9eff35fb55fb5e3573a173ac897c173",
    "SEinv/e": "683adf3941523cc5c9f8bacc8d67b7ad7c138a53f0899b9f71c530321d8a6751",
    "SEinv/h": "19546b780234d7a5f4be8100444ee546ff9a4b03b270dddb37382c7e24a89ad3",
    "SEinv/p": "92b61659f8d36067df662e263d819869c14883ce1d8bb22f3f69bc8e4a82cc69",
    "SEinv/s": "c8d6ce200db9ec2ea65ea5e1173d55d2be751acdd8cd0932e85fdee59761a252",
    "Modd/m": "b93f433bbc2f3ff658e121303e7cb76f45f8815afc2720e4960355d60f2aa724",
    "Modd/e": "bbc35faacf171950d5da23de99fde2af21f720e16ea0582daa3f3313be802962",
    "Modd/h": "d18d2236fa3080842c5a7b1137bf1cdeeb17cc44bdf8b9c5ef2287953fd0918d",
    "Modd/p": "12406f235291d253b7914b0318bba3be38db516d60819d35fafd1d224cbb15b7",
    "Modd/s": "5d53773aa5cadae2d09bbb271f75a0a7fa6ba168484e921d1b333c3b48ab2907",
    "Meven/m": "16eb2f86237c460e4863e6d08656e9be47ef678a914db9d554e8a6bb35a818f7",
    "Meven/e": "9026601118df3a6349f88254fd1c80b7b2f83c287fd9665ffb9017cf19696331",
    "Meven/h": "c677731180ac4f3908b5538977b69b20f5657b8952a171bef2a6fd2dd18247bf",
    "Meven/p": "2e0bb9c4fc70e277a968b8fd2f842d495de7a2fe2ab17ad6d9372b672ea67e67",
    "Meven/s": "5a6e5021188caba428958b3954e841ce02e199cf316839f7b97ec17bc2c79d32",
    "N/m": "4d2d14fd81f203ac2a71b06e96410928007add6c09cc87e9e2688eb033435d3f",
    "N/e": "47af078a482025bc5779a82a8e0a26b51e0eaa13ac967fefd6316c865f090057",
    "N/h": "25cebd4d37b111cab883eae28c4d1761353806d2cebf380b0e5e803d79a75efb",
    "N/p": "67cc66a47ad68ba3f8d3d489da1cc65b338a7ac7c9949f89de8abd522f0499e3",
    "N/s": "d9d61c17b9b91cbdf484b667bade66595f2c21734225b5e4c3f9b581a3f27237",
    "P/m": "eff222ffbe6142e1986225ece0fa7057ee7148d6e08c6af3aa961f8d9b25b61f",
    "P/e": "3b0c285bebf17f3f6409b90a95f47ede683b78146671d8598683e673580a3c4d",
    "P/h": "d0ad0dba7db08963d9f70abfd35a6c081c456979e298c4d0961eedce4a736996",
    "P/p": "c64201e75354840d8f9aad94efe7d77aabd7ba9dedc046196f140e58b7d4aff2",
    "P/s": "cf04412e79b667f71221048cde977c659fbb10a54290f4e5dfd66b886e53244e",
    "G/m": "fe0ff9d30b0e45c869453ec3e400b47d515625aeaa5140eab9235ea2de904489",
    "G/e": "0c70e2a11988db6d67660a6b8c387a41a9d3d1884b8c773a10a28183adda50af",
    "G/h": "2047301bf3e1279f4f0fbd4e1511899e27cadf23f0ea1d44bd398d9c61a6e50c",
    "G/p": "dadf7dd1fbdb5e7b0950ea9f2cd6fc9d040defac41bcbd4e50df8ae7b58e6499",
    "G/s": "8e2723c295864c787e8b7f206849538fa847fd925dcdcd298fd8ecf7430e4ccd",
}

VERIFY_ALL_DEGREE_10 = "e0f7b3d5ee16ea1fa9d46f3eb216e77a73d5ab94116d38cb02c580ef9c6da7bc"


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("basis", BASES)
def test_expand_output_is_pinned(tag, basis):
    status, out = stdout_of(["expand", "--series", tag, "--degree", "10", "--basis", basis])
    assert status == 0
    assert sha256(out) == EXPAND_DEGREE_10[f"{tag}/{basis}"]


def test_verify_all_json_is_pinned(tmp_path):
    path = tmp_path / "reports.json"
    status, _ = stdout_of(["verify", "all", "--degree", "10", "--json", str(path)])
    assert status == 0
    reports = json.loads(path.read_text(encoding="utf-8"))
    for report in reports:
        del report["millis"]
    assert sha256(json.dumps(reports, indent=2, ensure_ascii=False)) == VERIFY_ALL_DEGREE_10
