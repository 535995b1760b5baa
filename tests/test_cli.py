import json

import pytest

from gramtree.cli import main
from gramtree.grammar import enumerate_language, parse_tracery

from conftest import BRACKETS, FIG1_JSON, FIG1_SENTENCES, HASHTAGS, TWO_BY_TWO


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(TWO_BY_TWO) + "\n\n", encoding="utf-8")
    return path


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(FIG1_JSON, encoding="utf-8")
    return path


def test_induce_to_stdout(corpus, capsys):
    assert main(["induce", str(corpus), "--ratio", "1.0"]) == 0
    grammar = parse_tracery(capsys.readouterr().out)
    assert enumerate_language(grammar).sentences == frozenset(TWO_BY_TWO)


def test_induce_to_file(corpus, tmp_path, capsys):
    out = tmp_path / "grammar.json"
    assert main(["induce", str(corpus), "--out", str(out)]) == 0
    grammar = parse_tracery(out.read_text(encoding="utf-8"))
    assert enumerate_language(grammar).sentences == frozenset(TWO_BY_TWO)


def test_induced_hashtags_enumerate_back(tmp_path, capsys):
    corpus, grammar = tmp_path / "hashtags.txt", tmp_path / "grammar.json"
    corpus.write_text("\n".join(HASHTAGS) + "\n", encoding="utf-8")
    assert main(["induce", str(corpus), "--ratio", "1.0", "--out", str(grammar)]) == 0
    assert main(["enumerate", str(grammar)]) == 0
    assert capsys.readouterr().out.splitlines() == sorted(HASHTAGS)


def test_induced_brackets_enumerate_back(tmp_path, capsys):
    corpus, grammar = tmp_path / "brackets.txt", tmp_path / "grammar.json"
    corpus.write_text("\n".join(BRACKETS) + "\n", encoding="utf-8")
    assert main(["induce", str(corpus), "--ratio", "1.0", "--out", str(grammar)]) == 0
    assert main(["enumerate", str(grammar)]) == 0
    assert capsys.readouterr().out.splitlines() == sorted(BRACKETS)


def test_induce_reads_a_corpus_with_a_byte_order_mark(tmp_path, capsys):
    corpus = tmp_path / "bom.txt"
    corpus.write_text("hello world\nhello people\n", encoding="utf-8-sig")
    assert main(["induce", str(corpus)]) == 0
    assert json.loads(capsys.readouterr().out) == {"origin": "hello #A#", "A": ["people", "world"]}


def test_enumerate_reads_a_grammar_with_a_byte_order_mark(tmp_path, capsys):
    grammar = tmp_path / "bom.json"
    grammar.write_text(FIG1_JSON, encoding="utf-8-sig")
    assert main(["enumerate", str(grammar)]) == 0
    assert set(capsys.readouterr().out.splitlines()) == set(FIG1_SENTENCES)


def test_induce_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["induce", str(tmp_path / "nope.txt")]) == 1


def test_induce_empty_corpus_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n  \n", encoding="utf-8")
    assert main(["induce", str(empty)]) == 1


def test_tree_empty_corpus_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n  \n", encoding="utf-8")
    assert main(["tree", str(empty)]) == 1
    assert capsys.readouterr().err == "gramtree: corpus is empty\n"


def test_tree_command(corpus, capsys):
    assert main(["tree", str(corpus), "--ascii"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].count("<") == 2
    assert sum(1 for line in out.splitlines() if line.endswith("*")) == 4


def test_enumerate_command(fig1_file, capsys):
    assert main(["enumerate", str(fig1_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert lines == sorted(lines)
    assert set(lines) == set(FIG1_SENTENCES)


def test_enumerate_truncation_warns_but_succeeds(fig1_file, capsys):
    assert main(["enumerate", str(fig1_file), "--cap", "4"]) == 0
    err = capsys.readouterr().err
    assert "truncated" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_enumerate_cap_below_one_is_usage_error(fig1_file, capsys, cap):
    assert main(["enumerate", str(fig1_file), "--cap", cap]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap must be >= 1" in captured.err


def test_generate_command(fig1_file, capsys):
    assert main(["generate", str(fig1_file), "--seed", "5", "--count", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line in FIG1_SENTENCES for line in lines)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_generate_count_below_one_is_usage_error(fig1_file, capsys, count):
    assert main(["generate", str(fig1_file), "--seed", "1", "--count", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must be >= 1" in captured.err


def test_generate_is_seed_deterministic(fig1_file, capsys):
    main(["generate", str(fig1_file), "--seed", "9", "--count", "2"])
    first = capsys.readouterr().out
    main(["generate", str(fig1_file), "--seed", "9", "--count", "2"])
    assert capsys.readouterr().out == first


def test_eval_command_markdown(fig1_file, capsys):
    assert main(["eval", str(fig1_file), "--sizes", "12", "--runs", "3", "--ratio", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "| fig1 | 12 | 8 | 12 | 0 | 8 |" in out


def test_eval_command_json(fig1_file, capsys):
    assert main(["eval", str(fig1_file), "--sizes", "6", "--runs", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["grammars"][0]["language_size"] == 12


def test_eval_bad_sizes_is_usage_error(fig1_file, capsys):
    assert main(["eval", str(fig1_file), "--sizes", "abc"]) == 1


def test_eval_cap_below_one_is_usage_error(fig1_file, capsys):
    assert main(["eval", str(fig1_file), "--sizes", "6", "--cap", "0"]) == 1
    assert "cap must be >= 1" in capsys.readouterr().err


def test_eval_empty_sizes_is_usage_error(fig1_file, capsys):
    assert main(["eval", str(fig1_file), "--sizes", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sample sizes" in captured.err


def test_eval_duplicate_sizes_is_usage_error(fig1_file, capsys):
    assert main(["eval", str(fig1_file), "--sizes", "6,6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "distinct positive sizes" in captured.err


def test_eval_oversized_sample_is_usage_error(fig1_file, capsys):
    assert main(["eval", str(fig1_file), "--sizes", "100"]) == 1


def test_unsupported_grammar_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"origin": "[x:#a#] #a#", "a": ["y"]}), encoding="utf-8")
    assert main(["enumerate", str(bad)]) == 2


def test_recursive_grammar_exit_code(tmp_path, capsys):
    recursive = tmp_path / "rec.json"
    recursive.write_text(json.dumps({"origin": "#origin# x"}), encoding="utf-8")
    assert main(["enumerate", str(recursive)]) == 2


def test_rule_without_alternatives_exit_code(tmp_path, capsys):
    empty_rule = tmp_path / "empty_rule.json"
    empty_rule.write_text(json.dumps({"origin": "a #B#", "B": []}), encoding="utf-8")
    assert main(["generate", str(empty_rule), "--seed", "1"]) == 2
    assert capsys.readouterr().err == "gramtree: rule 'B' has no alternatives\n"


def test_malformed_json_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops", encoding="utf-8")
    assert main(["generate", str(broken), "--seed", "1"]) == 2


def test_usage_error_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
