"""CLI identity guard: the digests of exit code, stdout and stderr per command.

Each digest is the sha256 of the JSON list [exit code, stdout, stderr] of
one command run through `autorec.cli.main`.  The table was generated from
the implementation before the power-stack rewrite of `char_poly` and
`minimal_poly`, so any change in what the CLI prints shows up here.  A
deliberate output change regenerates the table with `_digest` over
`COMMANDS`.
"""

import hashlib
import json

import pytest

from autorec.automaton import PatternSpec, pattern_dfao
from autorec.cli import main

SHIPPED = ("thue_morse", "rudin_shapiro", "baum_sweet")
# (file name, k, pattern, modulus)
PATTERNS = (("pat_2_010_3.dfao", 2, (0, 1, 0), 3), ("pat_3_12_2.dfao", 3, (1, 2), 2))
# outputs in Q(zeta_3) at r = 105: the product over Q(zeta_105) is non-derogatory, so
# the minimal polynomial is the characteristic one and nothing is eliminated
LARGE = ("pat_2_01_3.dfao", 2, (0, 1), 3)
ROOTS = {2: ((3, 1), (5, 2), (9, 3), (15, 7)), 3: ((5, 1), (7, 2))}

# per (machine, root): three consecutive entries, cycling through the list
ROOT_COMMANDS = (
    ("synth",),
    ("synth", "--format", "text"),
    ("synth", "--minimal"),
    ("synth", "--minimal", "--verify-n", "30", "--format", "text"),
    ("verify", "--n-max", "30"),
    ("verify", "--minimal", "--n-max", "30", "--format", "text"),
    ("intrec", "--verify-n", "20", "--format", "text"),
)
PER_ROOT = 3


def _commands() -> list[tuple]:
    machines = [(name, 2) for name in SHIPPED] + [(f, k) for f, k, _, _ in PATTERNS]
    out = []
    slot = 0
    for i, (dfao, k) in enumerate(machines):
        fmt, other = ("text", "json") if i % 2 else ("json", "text")
        out.append(("matrix", "--dfao", dfao, "--power", "2", "--truncate", "3", "--format", fmt))
        out.append(("span", "--dfao", dfao, "--format", other))
        out.append(("dims", "--dfao", dfao, "--format", fmt))
        for r, e in ROOTS[k]:
            for _ in range(PER_ROOT):
                cmd, *rest = ROOT_COMMANDS[slot % len(ROOT_COMMANDS)]
                slot += 1
                out.append((cmd, "--dfao", dfao, "--r", str(r), "--e", str(e), *rest))
    # an exhausted budget: the error path, byte for byte
    out.append(("verify", "--dfao", "rudin_shapiro", "--r", "3", "--e", "1", "--n-max", "10000", "--budget", "500"))
    out.append(("tm-classify", "--r0", "63"))
    out.append(("tm-table", "--bound", "300"))
    out.append(("synth", "--dfao", LARGE[0], "--r", "105", "--minimal", "--verify-n", "20"))
    out.append(("synth", "--dfao", "rudin_shapiro", "--r", "1155", "--minimal", "--verify-n", "20"))
    return out


COMMANDS = _commands()


@pytest.fixture(scope="module")
def pattern_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("frozen")
    for name, k, v, m in PATTERNS + (LARGE,):
        (d / name).write_text(pattern_dfao(PatternSpec(k, v, m)).to_text(), encoding="utf-8")
    return d


def _digest(argv: list[str], capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    blob = json.dumps([code, captured.out, captured.err])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


FROZEN = {
    "matrix --dfao thue_morse --power 2 --truncate 3 --format json": "beeb697cc739698d331d81f87d7a2f44539ccfcade44c090bbdc1b43f7da45f9",
    "span --dfao thue_morse --format text": "7df0b6263446cda4fd1faf1289def93334b0668e8e5b5675a04481a8aa99f394",
    "dims --dfao thue_morse --format json": "de75d1972b0c5c82eac426ad4abe81e0bc7b858f30ad50c39b9e21990c333c08",
    "synth --dfao thue_morse --r 3 --e 1": "3d0349bab4532eaf016b34a144bab401582a77911a03f91008b565fc52457c0a",
    "synth --dfao thue_morse --r 3 --e 1 --format text": "5146e7ce141430b3fff17b65e29648f4c9d89e3ac5279703704455d5116b1ff8",
    "synth --dfao thue_morse --r 3 --e 1 --minimal": "78e34ad81be2cb462a990b8e880a3360724798269a1fa0a6b2a16b5635f3ef2d",
    "synth --dfao thue_morse --r 5 --e 2 --minimal --verify-n 30 --format text": "d866f456804fb4423ea74f636117143af34f59c1c5989444031190be8d2415ef",
    "verify --dfao thue_morse --r 5 --e 2 --n-max 30": "38015779f01278ca2339d65d3b9ffbb686c5da82986431a00b0ed7f8e44cda10",
    "verify --dfao thue_morse --r 5 --e 2 --minimal --n-max 30 --format text": "7259d04808ae9a7864d193da817baf31eee6d7b8a44957e1b927a6b97ac1b23e",
    "intrec --dfao thue_morse --r 9 --e 3 --verify-n 20 --format text": "3dd7802259ab48d7d4f00247bb9b22a47d3e145e8f16572858dbd9c747cd35c7",
    "synth --dfao thue_morse --r 9 --e 3": "79089400ecebe84348018950a3df91019054adb7746ed5762e1dddb3e7d5db9c",
    "synth --dfao thue_morse --r 9 --e 3 --format text": "5146e7ce141430b3fff17b65e29648f4c9d89e3ac5279703704455d5116b1ff8",
    "synth --dfao thue_morse --r 15 --e 7 --minimal": "735ca92baf6c88a651228fe49ad2b99e6c5cf5868552bc7fdd64dc9c74fd4244",
    "synth --dfao thue_morse --r 15 --e 7 --minimal --verify-n 30 --format text": "9481fadf36e6109f77c577360152c6c269f82338ec1543e22ee982508ac97371",
    "verify --dfao thue_morse --r 15 --e 7 --n-max 30": "90f865589d1621684eb20234e6d9c0a471e91cf03b37b003022597154389b908",
    "matrix --dfao rudin_shapiro --power 2 --truncate 3 --format text": "f012f2c989694e091be9d226aaaec25b267196d49838bcfb557c5c6c3efa28f7",
    "span --dfao rudin_shapiro --format json": "14e796f708368577011f04687399e7d2c3e7795d91e3bd4f06ce45217c38482c",
    "dims --dfao rudin_shapiro --format text": "15d78a5d22b1994d2889f777194f5c48ac98025ecc47dad471213e339987f7ef",
    "verify --dfao rudin_shapiro --r 3 --e 1 --minimal --n-max 30 --format text": "1bca12ba3999cc7e75f83b7d0a122aa69735a8dbb89da19cc12610daf2ef2ee4",
    "intrec --dfao rudin_shapiro --r 3 --e 1 --verify-n 20 --format text": "9098ebce98c46c188e1f5153e0d9e209d9ec880724d81cf70ed9512b6e2cf4ea",
    "synth --dfao rudin_shapiro --r 3 --e 1": "2d58664c71f817212cfc7dd3d43aeb1c728f24d8beb19ca60642cf9e51aca204",
    "synth --dfao rudin_shapiro --r 5 --e 2 --format text": "2dfd15d81dd6d354c6ff3217d0e9df096d7582ddb33657a4038c34b3b906417a",
    "synth --dfao rudin_shapiro --r 5 --e 2 --minimal": "61d2ec4fc1ccc77063ef94d6621ff350ce5cc42067fc8ae8b3918d61f4eca044",
    "synth --dfao rudin_shapiro --r 5 --e 2 --minimal --verify-n 30 --format text": "2dfd15d81dd6d354c6ff3217d0e9df096d7582ddb33657a4038c34b3b906417a",
    "verify --dfao rudin_shapiro --r 9 --e 3 --n-max 30": "2526fee855bc58e0f962a2c396f71cd9a9463bbededa909317057564a5fcd5aa",
    "verify --dfao rudin_shapiro --r 9 --e 3 --minimal --n-max 30 --format text": "1bca12ba3999cc7e75f83b7d0a122aa69735a8dbb89da19cc12610daf2ef2ee4",
    "intrec --dfao rudin_shapiro --r 9 --e 3 --verify-n 20 --format text": "9098ebce98c46c188e1f5153e0d9e209d9ec880724d81cf70ed9512b6e2cf4ea",
    "synth --dfao rudin_shapiro --r 15 --e 7": "c4e1f2aaf93f21a12f4cc560a395ab1cf8aebb02c658ba10ba60ea57ded89369",
    "synth --dfao rudin_shapiro --r 15 --e 7 --format text": "2dfd15d81dd6d354c6ff3217d0e9df096d7582ddb33657a4038c34b3b906417a",
    "synth --dfao rudin_shapiro --r 15 --e 7 --minimal": "f7c947990791ab730c1cf713e551ac6813d694fbed8b965dfbde7bab9ba3ebc9",
    "matrix --dfao baum_sweet --power 2 --truncate 3 --format json": "0e0238461f7afd2725eab9c90dbb73a496deebd4713b2c22943a84cff382766f",
    "span --dfao baum_sweet --format text": "e8873a3d1f005681021695a00e9de57a7720bfc87c699ebb377a91dfe9e3621b",
    "dims --dfao baum_sweet --format json": "b08fb6261771550f2875e111de19a05ef2f5707040d6680816139e1290d5083f",
    "synth --dfao baum_sweet --r 3 --e 1 --minimal --verify-n 30 --format text": "a06c47086e2f07c6a8ca97d897fb9acc18a8163866aad89ac50ce9c4bf40931d",
    "verify --dfao baum_sweet --r 3 --e 1 --n-max 30": "742f3af434332bc76f43a21326974fe1eb038b6de10128ea643fae9cfdb5c681",
    "verify --dfao baum_sweet --r 3 --e 1 --minimal --n-max 30 --format text": "ec1becc720616f706e541ff1db3c0f7778b3b15b32d385102d0345f88f9a37ee",
    "intrec --dfao baum_sweet --r 5 --e 2 --verify-n 20 --format text": "319650dcfeb512dca2d36e1289fa092dc45c0185500037762bef4571575010a6",
    "synth --dfao baum_sweet --r 5 --e 2": "ab386f53216c4548dedd8694697f40cea6eaeb4ad7bc7bb86504ccb89e3fc76b",
    "synth --dfao baum_sweet --r 5 --e 2 --format text": "a66cc7e58be0ce5af7fb4e11c6f9ca8ab265ddfdce701b5b4fbfaa98d484bb0b",
    "synth --dfao baum_sweet --r 9 --e 3 --minimal": "e70d341f84b4070df5581a033333c5f4f1771b0791fb1ac906e457d1f40d5126",
    "synth --dfao baum_sweet --r 9 --e 3 --minimal --verify-n 30 --format text": "a06c47086e2f07c6a8ca97d897fb9acc18a8163866aad89ac50ce9c4bf40931d",
    "verify --dfao baum_sweet --r 9 --e 3 --n-max 30": "a698bbda43ca65cb8b850aba3c919932f5871c1a3f885aeb0bc06f6f53fe1060",
    "verify --dfao baum_sweet --r 15 --e 7 --minimal --n-max 30 --format text": "33c117f12227159e128016c8c8761e40d37bb14b70e1c01bd161551b0b227d6e",
    "intrec --dfao baum_sweet --r 15 --e 7 --verify-n 20 --format text": "60b1266cb585648c93ff73c501eedaf80d1ad8551ea1610590a825cbb4d5c4fd",
    "synth --dfao baum_sweet --r 15 --e 7": "85808e454fca0fc9248b4f4136f0235795dd8bf90b6c1a36ecfb5ef77d2953e4",
    "matrix --dfao pat_2_010_3.dfao --power 2 --truncate 3 --format text": "e72c5062d3e1fe2cabbedbf15844f8b40f89c177d61adcfd0215b8ddf0668ebe",
    "span --dfao pat_2_010_3.dfao --format json": "5bd87abc315686c82f213eed4589ff65ca1671fd7a0cf74149e440b2687f81a6",
    "dims --dfao pat_2_010_3.dfao --format text": "eda744532c1c0793ccdd0583583739b1b968e0bdb9c3df8dae068e10a52f09d5",
    "synth --dfao pat_2_010_3.dfao --r 3 --e 1 --format text": "9467adf76ba1efab7d5a2571554f9cb283e03fe71e64d53a3678d23ee02b1413",
    "synth --dfao pat_2_010_3.dfao --r 3 --e 1 --minimal": "31a64d71231d71f3e81cb99ead7d7307d5af56c75e5813944b681296e4b2f659",
    "synth --dfao pat_2_010_3.dfao --r 3 --e 1 --minimal --verify-n 30 --format text": "9467adf76ba1efab7d5a2571554f9cb283e03fe71e64d53a3678d23ee02b1413",
    "verify --dfao pat_2_010_3.dfao --r 5 --e 2 --n-max 30": "03cff4d4260957e025f6e2adf96927d67b5f63c707bbb242c3822002f3671f98",
    "verify --dfao pat_2_010_3.dfao --r 5 --e 2 --minimal --n-max 30 --format text": "2f4da56fa5185127cede2fb7887bbc78c01e269bb3bfa962ef7cdbbf7cb9aa9f",
    "intrec --dfao pat_2_010_3.dfao --r 5 --e 2 --verify-n 20 --format text": "3d383030d37202d4574da308349589d99a26e57aaa89b8d4c837877fe9782d0f",
    "synth --dfao pat_2_010_3.dfao --r 9 --e 3": "e4ecd5301247fe587cc16ea031f1b6d40c0787c3c2770859316f7f81cded60b4",
    "synth --dfao pat_2_010_3.dfao --r 9 --e 3 --format text": "9467adf76ba1efab7d5a2571554f9cb283e03fe71e64d53a3678d23ee02b1413",
    "synth --dfao pat_2_010_3.dfao --r 9 --e 3 --minimal": "6a85df56e3d5738b872aa063009bd49e6947bb7e746bc65edb8c157c6b7b4533",
    "synth --dfao pat_2_010_3.dfao --r 15 --e 7 --minimal --verify-n 30 --format text": "af81abfa62d35cc10e5034067510fd90170322c06b76b0123efa54791a3b59b4",
    "verify --dfao pat_2_010_3.dfao --r 15 --e 7 --n-max 30": "360a125f0ea3d297610f8781cc525c6ad15f211d4fd7242f16711456fc7e2ed2",
    "verify --dfao pat_2_010_3.dfao --r 15 --e 7 --minimal --n-max 30 --format text": "6f2f383e3468115fd9feab5a1430ba2de2d6244df1bafdc48378c95b13be96fd",
    "matrix --dfao pat_3_12_2.dfao --power 2 --truncate 3 --format json": "1466bac107b0acbf7d74acaf800de03d707d8e700ae2d86ddba55b7fcef1f649",
    "span --dfao pat_3_12_2.dfao --format text": "fad15046d5a33b815d5da376b0c1856d94256835a0d4a462fa6b54416f9b04ec",
    "dims --dfao pat_3_12_2.dfao --format json": "c3562485b562107c458a2f7c365737b7acb92f9f700c1266a38d0783a396e9fb",
    "intrec --dfao pat_3_12_2.dfao --r 5 --e 1 --verify-n 20 --format text": "c1aca1924cdc452af9fb2a75dbd77b45b8cf95023f57bee8867bbf3aa60e6ba8",
    "synth --dfao pat_3_12_2.dfao --r 5 --e 1": "843d3791146aa8649d6f4db6538443f37e7439b6df8b8365361bc1da6203ab67",
    "synth --dfao pat_3_12_2.dfao --r 5 --e 1 --format text": "9e4dc8730b7f1ef53e46d33dddc30e4b04e8d8ced1ce3c64c7cd940769b86015",
    "synth --dfao pat_3_12_2.dfao --r 7 --e 2 --minimal": "0f74a9d6f0840b5aa4b677498246b973bd411f371ad64c164fd83eb1e8966b7d",
    "synth --dfao pat_3_12_2.dfao --r 7 --e 2 --minimal --verify-n 30 --format text": "7565b3b7b4af87d0fb0ef299635bb4fd88daa2e6d631384fd3ab7318737ad67e",
    "verify --dfao pat_3_12_2.dfao --r 7 --e 2 --n-max 30": "63aa4783e7fef84184ad2e43f0686327b14d97666fbaf1dd01e76ec1a6c732b9",
    "verify --dfao rudin_shapiro --r 3 --e 1 --n-max 10000 --budget 500": "cab68e6e08f082fc1864e9606c04f28d7ba6c5c72d4c8add953d7e7d1f6cb3cc",
    "tm-classify --r0 63": "882383907dc1a92bb89fd522105d65af9085af169c5b74feaaad190846b8235a",
    "tm-table --bound 300": "05ec50898c38cfb24175a01d7b0b36150ecac5ae34a920736fcc82c41d920b8b",
    "synth --dfao pat_2_01_3.dfao --r 105 --minimal --verify-n 20": "db238d3f208e77ad3cb8e6ebfc4f35b7fedec25388344d45b0ed951c3c62e805",
    "synth --dfao rudin_shapiro --r 1155 --minimal --verify-n 20": "daf748b10ac70d5c8075c8fa15bed89e685b8c593a6d42e6bb56c42855a819a1",
}


@pytest.mark.parametrize("command", COMMANDS, ids=[" ".join(c) for c in COMMANDS])
def test_cli_output_frozen(command, pattern_dir, capsys):
    argv = [str(pattern_dir / a) if a.endswith(".dfao") else a for a in command]
    assert _digest(argv, capsys) == FROZEN[" ".join(command)]
