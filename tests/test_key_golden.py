"""Golden key files: the `.pub` and `.sec` text of one fixed key per scheme.

The keys are the seeded session fixtures from conftest.py.  A change to
the key-file format, field order or value encoding changes a digest here;
existing key files would then stop loading or stop reproducing.
"""

import hashlib

import pytest

from helb import serial

GOLDEN = {
    "paillier_keys": (
        "d24a31131d18f026c5ca8fe612f386842c2982b42b05e21b8ebd74e8fd262f97",
        "0ac2461341fdf128bf57f20f510d0fafcc891d06ee93b99206882123e8ce4449"),
    "dj_keys": (
        "b5f2e644d63f6b37f1bc99620170b1b4401bb536b7265628a1cd98947801575a",
        "6af98864f59ebfd5b34236371980c5401d4fa7a9a82f678b4d69901324faa536"),
    "ou_keys": (
        "e18a07cdf7bbb4f65e1e20b983c63800138338c891bf2a4e8b22493e6a30b758",
        "aa6f8290b153cb981008ef44efef1fb738a838492734ba026cca3597fe3362a2"),
    "benaloh_keys": (
        "7bf73703a98d073318d107167bbaa2bf26c6b56b629b985bf2ef6658dfd58b4d",
        "647a71cb6b433cf421b8a3d640dbaa269791cd8f5a17d92b3f9a6c03e61d4a2e"),
    "ns_keys": (
        "afe3f3822e65addbc6ecc63c64966bf5941ba04022dd7e1bab9d64bf2839110e",
        "ff999a61c36b3d4eab3d35e3b69f6d34616b234b88ce3f3b3e9c109672549dd1"),
    "gm_keys": (
        "0318258b52a6014dd94108f73e55765fe42e38459ebe162bdd1023b2312696ac",
        "9637d1ee067ef4f17c34d6f06d8e4994ef6548952544dfeeb86128d2c2196dd5"),
    "bfv_small_keys": (
        "de4c960d5b1d28fdad005c5298d23f55da3b55f50c7bc5b9172c4158c3bd07f0",
        "c8aca6c16aa9a134c0efbc24d0bc7e802a3f8aa571ae95e6539b466562493d17"),
    "desk_keys": (
        "6b07ba0d3f4c97351c0b04c609c4b4147c70f4f694480f90a06549bee0141a70",
        "e5d78a27ab4cc3e60191fc107ae4e728729a6f5ebd3846d1531ba632a7a2a665"),
}


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_key_files_match_golden_digests(fixture, request, tmp_path):
    keys = request.getfixturevalue(fixture)
    pub_path, sec_path = serial.write_key_files(keys, str(tmp_path / "key"))
    assert (_digest(pub_path), _digest(sec_path)) == GOLDEN[fixture]
